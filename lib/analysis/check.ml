(* The analyzer: assembles the pass registry and drives it — one walk,
   one read and one lex per file; per-file passes fan out over
   Engine.Pool in submission order, tree passes run once over the
   collected file set, and the final sort makes the report identical
   at any worker count. *)

let passes : Pass.t list =
  Tokens.passes @ Determinism.passes @ Hotpath.passes @ Constants.passes
  @ Hygiene.passes

let find_pass id = List.find_opt (fun (p : Pass.t) -> p.Pass.id = id) passes

let source_ctx ~path src =
  let tokens = Lexer.tokenize src in
  let items = Parser.parse tokens in
  {
    Pass.sc_path = Pass.normalise_path path;
    sc_tokens = tokens;
    sc_items = items;
    sc_contexts = Parser.contexts items;
  }

let run_source (sc : Pass.source_ctx) =
  List.concat_map
    (fun (p : Pass.t) ->
      match p.Pass.kind with
      | Pass.File_pass f when Pass.applies p sc.Pass.sc_path -> f sc
      | Pass.File_pass _ | Pass.Tree_pass _ -> [])
    passes

let compare_finding (a : Pass.finding) (b : Pass.finding) =
  match String.compare a.Pass.path b.Pass.path with
  | 0 -> (
      match Int.compare a.Pass.line b.Pass.line with
      | 0 -> (
          match String.compare a.Pass.rule b.Pass.rule with
          | 0 -> String.compare a.Pass.message b.Pass.message
          | c -> c)
      | c -> c)
  | c -> c

let run_string ~path src =
  List.sort compare_finding (run_source (source_ctx ~path src))

let run_files ?jobs (files : (string * string) list) =
  let files =
    List.map (fun (p, src) -> (Pass.normalise_path p, src)) files
  in
  let mls =
    Array.of_list
      (List.filter (fun (p, _) -> Filename.check_suffix p ".ml") files)
  in
  let scanned =
    Engine.Pool.with_pool ?jobs (fun pool ->
        Engine.Pool.map pool
          (fun (p, src) ->
            let sc = source_ctx ~path:p src in
            (sc.Pass.sc_tokens, run_source sc))
          mls)
  in
  (* Tree passes reuse the per-file token arrays; anything else (the
     .mli side) is lexed on first request and memoised. *)
  let lexed = Hashtbl.create (2 * List.length files) in
  Array.iteri (fun i (p, _) -> Hashtbl.replace lexed p (fst scanned.(i))) mls;
  let tokens p =
    match Hashtbl.find_opt lexed p with
    | Some ts -> Some ts
    | None ->
        Option.map
          (fun src ->
            let ts = Lexer.tokenize src in
            Hashtbl.replace lexed p ts;
            ts)
          (List.assoc_opt p files)
  in
  let tc = { Pass.tc_files = List.map fst files; tc_tokens = tokens } in
  let tree_findings =
    List.concat_map
      (fun (p : Pass.t) ->
        match p.Pass.kind with
        | Pass.Tree_pass f ->
            List.filter
              (fun (fd : Pass.finding) -> Pass.applies p fd.Pass.path)
              (f tc)
        | Pass.File_pass _ -> [])
      passes
  in
  List.sort compare_finding
    (List.concat_map snd (Array.to_list scanned) @ tree_findings)

(* Source files ([.ml]/[.mli]) under a directory, skipping dot- and
   underscore-prefixed entries. *)
let rec walk dir =
  match Sys.readdir dir with
  | entries ->
      Array.fold_left
        (fun acc e ->
          if String.length e > 0 && (e.[0] = '.' || e.[0] = '_') then acc
          else
            let p = Filename.concat dir e in
            if Sys.is_directory p then walk p @ acc
            else if
              Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
            then p :: acc
            else acc)
        [] entries
  | exception Sys_error _ -> []

let run_tree ?jobs ~roots () =
  let files = List.concat_map walk roots in
  run_files ?jobs
    (List.map (fun p -> (p, In_channel.with_open_bin p In_channel.input_all))
       files)
