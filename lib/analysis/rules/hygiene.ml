(* API hygiene passes.

   test-only-escape: [test_only_*] hooks are deliberate-bug levers for
   the fuzz harness's negative tests; any qualified reference outside
   test/ is production code reaching for a sabotage switch.

   undeclared-export: a compile-independent cross-check that values
   referenced as [Lib.Module.value] from another library appear in
   [lib/<dir>/module.mli].  On a compiling tree this is vacuous by
   construction — its value is on broken or in-progress trees, where
   the analyzer (unlike the compiler) still runs. *)

let family = "api-hygiene"

let run_test_only (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      if t.Lexer.kind = Lexer.Ident then
        match Pass.components t.Lexer.text with
        | _ :: (_ :: _ as rest)
          when List.exists (String.starts_with ~prefix:"test_only_") rest ->
            let context =
              match Parser.enclosing sc.Pass.sc_contexts i with
              | Some c -> Parser.qualified_name c
              | None -> ""
            in
            out :=
              Pass.finding ~rule:"test-only-escape" ~family
                ~path:sc.Pass.sc_path ~line:t.Lexer.tline
                ~message:
                  (t.Lexer.text
                  ^ " is a test-only sabotage hook; production code must \
                     never reference it (tests under test/ are exempt)")
                ~context
              :: !out
        | _ -> ())
    ts;
  List.rev !out

(* Wrapped-library roots: toplevel module name -> source directory. *)
let libmap =
  [
    ("Engine", "lib/engine"); ("Packet", "lib/packet");
    ("Netsim", "lib/netsim"); ("Tfrc", "lib/tfrc"); ("Sack", "lib/sack");
    ("Tcp", "lib/tcp"); ("Qtp", "lib/core"); ("Stats", "lib/stats");
    ("Trace", "lib/trace"); ("Analysis", "lib/analysis");
    ("Fuzz", "lib/fuzz"); ("Workload", "lib/workload");
    ("Experiments", "lib/experiments");
  ]

let lower_start s =
  s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

let upper_start s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* The exported-name set of one .mli: every lowercase dotted-path
   component of every identifier token.  Deliberately permissive — a
   name mentioned anywhere in the interface counts — so the pass only
   fires when the interface is truly silent about a value.  None when
   the .mli is unreadable or uses [include] (the surface is then not
   syntactically evident). *)
let harvest tc_tokens mli_path =
  match tc_tokens mli_path with
  | None -> None
  | Some toks ->
      if
        Array.exists
          (fun (t : Lexer.token) ->
            t.Lexer.kind = Lexer.Ident && t.Lexer.text = "include")
          toks
      then None
      else begin
        let names = Hashtbl.create 64 in
        Array.iter
          (fun (t : Lexer.token) ->
            if t.Lexer.kind = Lexer.Ident then
              List.iter
                (fun c -> if lower_start c then Hashtbl.replace names c ())
                (Pass.components t.Lexer.text))
          toks;
        Some names
      end

let run_exports (tc : Pass.tree_ctx) =
  let memo = Hashtbl.create 16 in
  let exported mli_path =
    match Hashtbl.find_opt memo mli_path with
    | Some v -> v
    | None ->
        let v = harvest tc.Pass.tc_tokens mli_path in
        Hashtbl.add memo mli_path v;
        v
  in
  let mls =
    List.sort String.compare
      (List.filter (fun f -> Filename.check_suffix f ".ml") tc.Pass.tc_files)
  in
  List.concat_map
    (fun path ->
      match tc.Pass.tc_tokens path with
      | None -> []
      | Some toks ->
          let seen = Hashtbl.create 8 in
          List.filter_map
            (fun (t : Lexer.token) ->
              if t.Lexer.kind <> Lexer.Ident then None
              else
                match Pass.components t.Lexer.text with
                | c0 :: c1 :: c2 :: _
                  when upper_start c1 && lower_start c2
                       && not (Hashtbl.mem seen t.Lexer.text) -> (
                    match List.assoc_opt c0 libmap with
                    | Some libdir
                      when not (Pass.contains_sub ~sub:libdir path) -> (
                        Hashtbl.replace seen t.Lexer.text ();
                        let mli =
                          libdir ^ "/" ^ String.uncapitalize_ascii c1
                          ^ ".mli"
                        in
                        match exported mli with
                        | None -> None
                        | Some names ->
                            if Hashtbl.mem names c2 then None
                            else
                              Some
                                (Pass.finding ~rule:"undeclared-export"
                                   ~family ~path ~line:t.Lexer.tline
                                   ~message:
                                     (Printf.sprintf
                                        "'%s' is referenced cross-library \
                                         but '%s' does not declare '%s'; \
                                         export it (or stop reaching into \
                                         the internals)"
                                        t.Lexer.text mli c2)
                                   ~context:t.Lexer.text))
                    | _ -> None)
                | _ -> None)
            (Array.to_list toks))
    mls

let passes : Pass.t list =
  [
    {
      id = "test-only-escape";
      family;
      doc = "test_only_* hooks referenced outside test/";
      rationale =
        "test_only_* switches deliberately break an invariant so the \
         fuzzer's oracles can prove they would catch the breakage; a \
         production reference arms a sabotage lever in shipping code.";
      bad = "if Sack.Rcv_tracker.test_only_skip_dup_check := true";
      good = "(* only test/test_fuzz.ml flips the hook, inside a Fun.protect reset *)";
      dirs = [];
      allow = [ "test/" ];
      kind = File_pass run_test_only;
    };
    {
      id = "undeclared-export";
      family;
      doc =
        "Lib.Module.value referenced cross-library but absent from the \
         module's .mli";
      rationale =
        "A value used across library boundaries without an interface \
         declaration couples downstream code to internals; the compiler \
         catches this only once everything compiles, the analyzer \
         catches it on any tree state.";
      bad = "Engine.Wheel.bucket_push pool.wheel id ev (* not in wheel.mli *)";
      good = "val bucket_push : t -> int -> Event.t -> unit (* declared in wheel.mli *)";
      dirs = [];
      allow = [];
      kind = Tree_pass run_exports;
    };
  ]
