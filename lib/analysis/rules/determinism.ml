(* Determinism / race passes.

   The multicore pool's correctness rests on a static contract: no
   top-level mutable state outside Domain.DLS, no output ordered by
   Hashtbl iteration, no wall-clock reads outside the sim clock (the
   token lint's random-call / domain-spawn rules cover the RNG and
   domain halves of the same contract). *)

let family = "determinism"

(* Allocators whose result, bound at the top level, is state shared by
   every domain that touches the module. *)
let alloc_heads =
  [
    "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create";
    "Stack.create"; "Bytes.create"; "Array.make"; "Array.init";
    "Array.create_float"; "Atomic.make";
  ]

let is_dls_key text =
  let cs = Pass.components text in
  List.mem "DLS" cs && Pass.last_component text = "new_key"

let run_top_state (sc : Pass.source_ctx) =
  List.filter_map
    (fun (c : Parser.context) ->
      let b = c.Parser.cx_binding in
      if b.Parser.bfun || List.mem "vtp.ambient" b.Parser.battrs then None
      else begin
        let lo, hi = b.Parser.bbody in
        let dls = ref false and alloc = ref "" in
        for i = lo to hi - 1 do
          let t = sc.Pass.sc_tokens.(i) in
          match t.Lexer.kind with
          | Lexer.Ident ->
              let text = Pass.strip_stdlib t.Lexer.text in
              if is_dls_key text then dls := true;
              if !alloc = "" && List.mem text alloc_heads then alloc := text
          | _ -> ()
        done;
        if !alloc = "" || !dls then None
        else
          Some
            (Pass.finding ~rule:"top-level-state" ~family
               ~path:sc.Pass.sc_path ~line:b.Parser.bline
               ~message:
                 (Printf.sprintf
                    "top-level binding '%s' allocates mutable state (%s) \
                     shared across domains; register it through \
                     Domain.DLS.new_key or mark it [@vtp.ambient]"
                    b.Parser.bname !alloc)
               ~context:(Parser.qualified_name c))
      end)
    sc.Pass.sc_contexts

let is_hashtbl_iteration text =
  let cs = Pass.components text in
  List.mem "Hashtbl" cs
  && match Pass.last_component text with "iter" | "fold" -> true | _ -> false

let starts_with prefix s = String.starts_with ~prefix s

(* Tokens that commit an ordering: consing onto an accumulator,
   assigning one, or printing/serialising directly. *)
let ordered_sink (ts : Lexer.token array) j =
  let t = ts.(j) in
  match t.Lexer.kind with
  | Lexer.Ident ->
      let cs = Pass.components (Pass.strip_stdlib t.Lexer.text) in
      (match cs with
      | "Buffer" :: _ when starts_with "add" (Pass.last_component t.Lexer.text)
        ->
          Some "Buffer.add*"
      | ("Printf" | "Format") :: _ -> Some (List.hd cs)
      | _ ->
          if
            List.exists
              (fun c -> starts_with "output_" c || starts_with "print_" c)
              cs
          then Some t.Lexer.text
          else None)
  | Lexer.Op ->
      if t.Lexer.text = ":=" then Some ":="
      else if t.Lexer.text = "::" && Pass.expr_position ts j then Some "::"
      else None
  | _ -> None

let sortish (ts : Lexer.token array) j =
  match ts.(j).Lexer.kind with
  | Lexer.Ident ->
      List.exists (starts_with "sort") (Pass.components ts.(j).Lexer.text)
  | _ -> false

let run_hashtbl_order (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      if t.Lexer.kind = Lexer.Ident && is_hashtbl_iteration t.Lexer.text then
        match Parser.enclosing sc.Pass.sc_contexts i with
        | None -> ()
        | Some c ->
            let b = c.Parser.cx_binding in
            if List.mem "vtp.unordered" b.Parser.battrs then ()
            else begin
              let lo, hi = b.Parser.bspan in
              let sorted = ref false and sink = ref "" in
              for j = lo to hi - 1 do
                if sortish ts j then sorted := true;
                if !sink = "" then
                  match ordered_sink ts j with
                  | Some s -> sink := s
                  | None -> ()
              done;
              if !sink <> "" && not !sorted then
                out :=
                  Pass.finding ~rule:"hashtbl-order" ~family
                    ~path:sc.Pass.sc_path ~line:t.Lexer.tline
                    ~message:
                      (Printf.sprintf
                         "%s feeds an ordered sink (%s) in '%s'; Hashtbl \
                          iteration order is unspecified — sort the keys \
                          first or mark the binding [@vtp.unordered]"
                         t.Lexer.text !sink b.Parser.bname)
                    ~context:(Parser.qualified_name c)
                  :: !out
            end)
    ts;
  List.rev !out

let clock_calls =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime";
    "Sys.time" ]

let run_wall_clock (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      if
        t.Lexer.kind = Lexer.Ident
        && List.mem (Pass.strip_stdlib t.Lexer.text) clock_calls
      then
        let context =
          match Parser.enclosing sc.Pass.sc_contexts i with
          | Some c -> Parser.qualified_name c
          | None -> ""
        in
        out :=
          Pass.finding ~rule:"wall-clock" ~family ~path:sc.Pass.sc_path
            ~line:t.Lexer.tline
            ~message:
              (t.Lexer.text
              ^ " reads the wall clock; simulated components must take \
                 time from Engine.Sim.now so runs replay identically")
            ~context
          :: !out)
    ts;
  List.rev !out

let passes : Pass.t list =
  [
    {
      id = "top-level-state";
      family;
      doc =
        "top-level ref/Hashtbl/Buffer state not registered through \
         Domain.DLS";
      rationale =
        "A top-level ref or table is one instance shared by every \
         domain the pool spawns; concurrent runs then race on it and \
         the @par-smoke byte-diff goes nondeterministic.  Ambient \
         state must be domain-local (Domain.DLS) or explicitly \
         declared [@vtp.ambient] with a reset discipline.";
      bad = "let scratch = Buffer.create 256";
      good =
        "let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)";
      dirs = [];
      allow = [];
      kind = File_pass run_top_state;
    };
    {
      id = "hashtbl-order";
      family;
      doc = "Hashtbl.iter/fold result escaping into ordered output";
      rationale =
        "Hashtbl iteration order depends on hash seeding and insertion \
         history, so consing or printing from inside iter/fold bakes an \
         unspecified order into reports and traces.  Commutative \
         aggregation (sums, maxima) is fine; ordered sinks need a sort.";
      bad = "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []";
      good =
        "let keys t = List.sort Int.compare (Hashtbl.fold (fun k _ acc \
         -> k :: acc) t [])";
      dirs = [];
      allow = [];
      kind = File_pass run_hashtbl_order;
    };
    {
      id = "wall-clock";
      family;
      doc = "Unix.gettimeofday/Sys.time outside the sim clock";
      rationale =
        "Reading the host clock inside simulated components makes \
         timeouts and traces depend on machine load, breaking replay \
         and the golden-trace corpus.  No path in the scanned trees is \
         exempt: host time is read only by perfbench, the benchmark, \
         which lives outside them.";
      bad = "let deadline = Unix.gettimeofday () +. rto";
      good = "let deadline = Engine.Sim.now sim +. rto";
      dirs = [];
      allow = [];
      kind = File_pass run_wall_clock;
    };
  ]
