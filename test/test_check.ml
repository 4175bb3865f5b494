(* The structural analyzer: parser shape recovery, one firing and one
   structurally-similar clean fixture per pass, report fingerprints,
   baseline gating, and the jobs-independence contract — all driven
   through [Check.run_string] / [Check.run_files] so no files need
   creating. *)

module P = Analysis.Parser
module Pass = Analysis.Pass
module Check = Analysis.Check
module Report = Analysis.Report
module Baseline = Analysis.Baseline

let parse src = P.parse (Analysis.Lexer.tokenize src)

let contexts src = P.contexts (parse src)

let binding_named name src =
  match
    List.find_opt (fun (c : P.context) -> c.P.cx_binding.P.bname = name)
      (contexts src)
  with
  | Some c -> c
  | None -> Alcotest.failf "no binding %S parsed out of %S" name src

let rules fs = List.map (fun (f : Pass.finding) -> f.Pass.rule) fs

let fires rule ~path src = List.mem rule (rules (Check.run_string ~path src))

let check_fires rule ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on %S" rule src)
    true (fires rule ~path src)

let check_clean rule ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s stays quiet on %S" rule src)
    false (fires rule ~path src)

let proto = "lib/tfrc/fixture.ml"

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parser_structure () =
  (* nested modules give qualified contexts *)
  let src =
    "module A = struct\n\
    \  module B = struct let x = 1 end\n\
    \  let y = 2\n\
     end\n\
     let z = 3\n"
  in
  let c = binding_named "x" src in
  Alcotest.(check (list string)) "x sits in A.B" [ "A"; "B" ] c.P.cx_mods;
  Alcotest.(check string) "qualified" "A.B.x" (P.qualified_name c);
  Alcotest.(check (list string)) "y sits in A" [ "A" ]
    (binding_named "y" src).P.cx_mods;
  Alcotest.(check (list string)) "z at top" [] (binding_named "z" src).P.cx_mods;
  (* functor bodies are still walked *)
  let fsrc = "module F (X : Set.S) = struct let pick s = X.min_elt s end\n" in
  Alcotest.(check (list string)) "functor member" [ "F" ]
    (binding_named "pick" fsrc).P.cx_mods;
  (* a module alias is not a struct *)
  (match parse "module M = Map.Make (Int)\nlet a = 1\n" with
  | [ P.Other { okw = "module"; _ }; P.Let _ ] -> ()
  | _ -> Alcotest.fail "module alias should parse as Other + Let")

let test_parser_attributes () =
  let b = (binding_named "f" "let[@vtp.hot] f x = x + 1\n").P.cx_binding in
  Alcotest.(check (list string)) "prefix attr" [ "vtp.hot" ] b.P.battrs;
  Alcotest.(check bool) "f is a function" true b.P.bfun;
  let b =
    (binding_named "g" "let g x = x + 1 [@@vtp.alloc_ok]\nlet h = 2\n")
      .P.cx_binding
  in
  Alcotest.(check (list string)) "trailing attr" [ "vtp.alloc_ok" ] b.P.battrs;
  let c =
    binding_named "k" "[@@@vtp.hot]\n\nlet k x = x * 2\n"
  in
  Alcotest.(check bool) "floating attr reaches the binding" true
    (List.mem "vtp.hot" c.P.cx_floating);
  let b =
    (binding_named "r" "let[@vtp.hot] rec r n = if n = 0 then 1 else r (n - 1)\n")
      .P.cx_binding
  in
  Alcotest.(check (list string)) "attr before rec" [ "vtp.hot" ] b.P.battrs

let test_parser_blind_spots () =
  (* keywords inside comments and strings are invisible *)
  let src =
    "(* let bogus = ref 0 *)\n\
     let s = \"let fake = ref 0\"\n\
     let k x = x\n"
  in
  let names =
    List.map (fun (c : P.context) -> c.P.cx_binding.P.bname) (contexts src)
  in
  Alcotest.(check (list string)) "only real bindings" [ "s"; "k" ] names;
  (* expression-level and-chains stay inside their function *)
  let src = "let f x =\n  let a = ref 0 and b = ref x in\n  !a + !b\n" in
  let names =
    List.map (fun (c : P.context) -> c.P.cx_binding.P.bname) (contexts src)
  in
  Alcotest.(check (list string)) "let..and..in is one binding" [ "f" ] names;
  Alcotest.(check bool) "f is a function" true
    (binding_named "f" src).P.cx_binding.P.bfun;
  (* top-level rec..and chains split into members *)
  let src = "let rec even n = odd (n - 1)\nand odd n = even (n - 1)\n" in
  let names =
    List.map (fun (c : P.context) -> c.P.cx_binding.P.bname) (contexts src)
  in
  Alcotest.(check (list string)) "rec/and members" [ "even"; "odd" ] names

let test_parser_bfun () =
  let bfun name src = (binding_named name src).P.cx_binding.P.bfun in
  Alcotest.(check bool) "parameters" true (bfun "f" "let f x = x\n");
  Alcotest.(check bool) "fun body" true (bfun "g" "let g = fun x -> x\n");
  Alcotest.(check bool) "function body" true
    (bfun "h" "let h = function [] -> 0 | _ -> 1\n");
  Alcotest.(check bool) "plain value" false (bfun "v" "let v = 5\n");
  Alcotest.(check bool) "annotated value" false
    (bfun "c" "let c : int = 5\n");
  (* a unit binding is an effectful statement, not a function *)
  Alcotest.(check bool) "unit pattern" false (bfun "()" "let () = run ()\n")

(* ------------------------------------------------------------------ *)
(* Determinism family *)

let test_top_level_state () =
  check_fires "top-level-state" ~path:proto "let table = Hashtbl.create 16\n";
  check_fires "top-level-state" ~path:proto "let count = ref 0\n";
  (* the sanctioned forms *)
  check_clean "top-level-state" ~path:proto
    "let table = Domain.DLS.new_key (fun () -> Hashtbl.create 16)\n";
  check_clean "top-level-state" ~path:proto
    "let[@vtp.ambient] hook = ref false\n";
  (* functions allocating per call are not ambient state *)
  check_clean "top-level-state" ~path:proto
    "let make () = Hashtbl.create 16\n";
  (* a local ref inside a function body is not top-level state *)
  check_clean "top-level-state" ~path:proto
    "let f x =\n  let a = ref 0 and b = ref x in\n  !a + !b\n"

let test_hashtbl_order () =
  check_fires "hashtbl-order" ~path:proto
    "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n";
  (* commutative aggregation is fine *)
  check_clean "hashtbl-order" ~path:proto
    "let total t = Hashtbl.fold (fun _ v acc -> acc + v) t 0\n";
  (* a sort downstream discharges the obligation *)
  check_clean "hashtbl-order" ~path:proto
    "let keys t =\n\
    \  List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n";
  check_clean "hashtbl-order" ~path:proto
    "let[@vtp.unordered] dump t = Hashtbl.iter (fun k _ -> print_int k) t\n"

let test_wall_clock () =
  check_fires "wall-clock" ~path:proto
    "let deadline rto = Unix.gettimeofday () +. rto\n";
  check_fires "wall-clock" ~path:proto "let t0 = Sys.time ()\n";
  check_clean "wall-clock" ~path:proto
    "let deadline sim rto = Engine.Sim.now sim +. rto\n";
  (* no path is exempt, a bench/ tree included *)
  check_fires "wall-clock" ~path:"bench/scale.ml"
    "let t0 = Unix.gettimeofday ()\n"

(* ------------------------------------------------------------------ *)
(* Hot-path family *)

let test_hot_closure () =
  check_fires "hot-closure" ~path:proto
    "let[@vtp.hot] f t = List.iter (fun x -> use x) t.xs\n";
  check_fires "hot-closure" ~path:proto
    "let[@vtp.hot] g t =\n  let rec walk i = if i = 0 then 0 else walk (i - 1) in\n  walk t.n\n";
  (* same body, not marked hot *)
  check_clean "hot-closure" ~path:proto
    "let f t = List.iter (fun x -> use x) t.xs\n";
  (* the binding's own leading fun IS the function *)
  check_clean "hot-closure" ~path:proto "let[@vtp.hot] h = fun x -> x + 1\n";
  (* a local scalar is not a nested function *)
  check_clean "hot-closure" ~path:proto
    "let[@vtp.hot] k t =\n  let cap = t.n * 2 in\n  cap + 1\n";
  check_clean "hot-closure" ~path:proto
    "let[@vtp.alloc_ok] [@vtp.hot] e t = List.iter (fun x -> use x) t.xs\n"

let test_hot_list () =
  check_fires "hot-list" ~path:proto
    "let[@vtp.hot] f t = t.acc <- t.x :: t.acc\n";
  check_fires "hot-list" ~path:proto
    "let[@vtp.hot] g xs = List.map succ xs\n";
  check_fires "hot-list" ~path:proto "let[@vtp.hot] h x = [ x; x + 1 ]\n";
  (* match patterns and array indexing are not list construction *)
  check_clean "hot-list" ~path:proto
    "let[@vtp.hot] len = function [] -> 0 | _ :: _ -> 1\n";
  check_clean "hot-list" ~path:proto "let[@vtp.hot] nth t i = t.arr.(i)\n";
  check_clean "hot-list" ~path:proto "let f t = t.acc <- t.x :: t.acc\n"

let test_hot_box () =
  check_fires "hot-box" ~path:proto
    "let[@vtp.hot] peek t = if t.n = 0 then None else Some t.arr.(0)\n";
  check_fires "hot-box" ~path:proto "let[@vtp.hot] cell () = ref 0\n";
  (* destructuring an option is free *)
  check_clean "hot-box" ~path:proto
    "let[@vtp.hot] get t = match t.o with Some x -> x | None -> 0\n";
  check_clean "hot-box" ~path:proto
    "let[@vtp.alloc_ok] peek t = if t.n = 0 then None else Some t.arr.(0)\n";
  (* floating [@@@vtp.hot] marks every function in the structure *)
  check_fires "hot-box" ~path:proto "[@@@vtp.hot]\nlet wrap x = Some x\n";
  check_clean "hot-box" ~path:proto "let wrap x = Some x\n"

let test_hot_format () =
  check_fires "hot-format" ~path:proto
    "let[@vtp.hot] emit t = log (Printf.sprintf \"seq=%d\" t.seq)\n";
  check_fires "hot-format" ~path:proto
    "let[@vtp.hot] name t = string_of_int t.id ^ \"x\"\n";
  check_clean "hot-format" ~path:proto
    "let emit t = log (Printf.sprintf \"seq=%d\" t.seq)\n";
  check_clean "hot-format" ~path:proto
    "let[@vtp.hot] record t = Trace.Sink.seg_send t.sink 1\n"

(* ------------------------------------------------------------------ *)
(* Protocol constants *)

let eq_path = "lib/tfrc/equation.ml"

(* A miniature equation.ml carrying both declared runs for that file:
   the rto coefficients [1; 4] and the throughput coefficients
   [2; 3; 3; 8; 3; 1; 32].  [last] parameterises the final coefficient
   so the drift case differs in exactly one literal. *)
let eq_src last =
  "let rate ~s ~r ~p ?(b = 1.0) ?t_rto () =\n\
  \  let t_rto = match t_rto with Some t -> t | None -> 4.0 *. r in\n\
  \  let root1 = sqrt (2.0 *. b *. p /. 3.0) in\n\
  \  let root2 = sqrt (3.0 *. b *. p /. 8.0) in\n\
  \  float_of_int s\n\
  \  /. ((r *. root1) +. (t_rto *. 3.0 *. root2 *. p *. (1.0 +. (" ^ last
  ^ " *. p *. p))))\n"

let eq_good = eq_src "32.0"

let proto_const_findings src =
  List.filter
    (fun (f : Pass.finding) -> f.Pass.rule = "proto-const")
    (Check.run_string ~path:eq_path src)

let test_proto_const () =
  Alcotest.(check int) "conforming constants pass" 0
    (List.length (proto_const_findings eq_good));
  (* a typo'd coefficient is caught and names the authority *)
  let drifted = eq_src "31.0" in
  (match proto_const_findings drifted with
  | [ f ] ->
      Alcotest.(check string) "drift names the constant id"
        "rfc3448.throughput-eq" f.Pass.context
  | fs -> Alcotest.failf "expected 1 drift finding, got %d" (List.length fs));
  (* a refactor that loses the anchor binding is caught too *)
  (match proto_const_findings "let other = 1.0\n" with
  | [ _; _ ] -> ()
  | fs ->
      Alcotest.failf "expected 2 anchor-missing findings, got %d"
        (List.length fs));
  (* out of scope: the same drift in an unscoped directory is silent *)
  Alcotest.(check bool) "scoped to lib/tfrc + lib/sack" false
    (fires "proto-const" ~path:"lib/netsim/equation.ml" drifted)

(* ------------------------------------------------------------------ *)
(* API hygiene *)

let test_test_only_escape () =
  check_fires "test-only-escape" ~path:"lib/core/loss.ml"
    "let () = Sack.Rcv_tracker.test_only_skip_dup_check := true\n";
  (* tests are the intended users *)
  check_clean "test-only-escape" ~path:"test/test_fuzz.ml"
    "let () = Sack.Rcv_tracker.test_only_skip_dup_check := true\n";
  (* defining the hook is fine; only qualified cross-module reaches fire *)
  check_clean "test-only-escape" ~path:"lib/sack/rcv_tracker.ml"
    "let[@vtp.ambient] test_only_skip_dup_check = ref false\n"

let user_ml = "lib/core/user.ml"

let exports_findings mli =
  let files =
    [
      ("lib/engine/wheel.mli", mli);
      (user_ml, "let go p ev = Engine.Wheel.bucket_push p 3 ev\n");
    ]
  in
  List.filter
    (fun (f : Pass.finding) -> f.Pass.rule = "undeclared-export")
    (Check.run_files files)

let test_undeclared_export () =
  (match exports_findings "val add : t -> unit\n" with
  | [ f ] ->
      Alcotest.(check string) "finding lands in the referencing file"
        user_ml f.Pass.path
  | fs ->
      Alcotest.failf "expected 1 undeclared-export finding, got %d"
        (List.length fs));
  Alcotest.(check int) "declared name passes" 0
    (List.length
       (exports_findings "val bucket_push : t -> int -> Event.t -> unit\n"));
  (* an [include] makes the surface non-evident: stay silent *)
  Alcotest.(check int) "include suppresses the check" 0
    (List.length (exports_findings "include module type of Impl\n"))

(* ------------------------------------------------------------------ *)
(* Report + baseline *)

let entry ?(line = 10) ?(rule = "hot-box") ?(msg = "boxing") () =
  Report.make ~rule ~family:"hot-path" ~path:"lib/engine/wheel.ml" ~line
    ~message:msg ~context:"Wheel.pop"

let test_fingerprints () =
  (* line-insensitive: edits above a finding don't churn the baseline *)
  Alcotest.(check string) "same identity, different line"
    (entry ~line:10 ()).Report.fingerprint
    (entry ~line:99 ()).Report.fingerprint;
  Alcotest.(check bool) "message is part of identity" false
    ((entry ()).Report.fingerprint
    = (entry ~msg:"other" ()).Report.fingerprint)

let test_baseline_classify () =
  let old = entry () in
  let moved = entry ~line:42 () in
  let fresh = entry ~rule:"hot-list" ~msg:"consing" () in
  let bl = Baseline.of_entries [ old ] in
  (match Baseline.classify bl (Report.sort [ moved; fresh ]) with
  | [ (_, n1); (_, n2) ] ->
      let news =
        List.sort compare
          [ (if n1 then 1 else 0); (if n2 then 1 else 0) ]
      in
      Alcotest.(check (list int)) "moved absorbed, fresh gates" [ 0; 1 ] news
  | _ -> Alcotest.fail "classify changed arity");
  (* multiset: one baselined copy absorbs exactly one occurrence *)
  (match Baseline.classify bl (Report.sort [ moved; entry ~line:50 () ]) with
  | [ (_, a); (_, b) ] ->
      Alcotest.(check bool) "second copy still gates" true (a || b);
      Alcotest.(check bool) "first copy absorbed" false (a && b)
  | _ -> Alcotest.fail "classify changed arity")

let test_baseline_malformed () =
  let raises s =
    match Baseline.of_string s with
    | exception Baseline.Malformed _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "garbage" true (raises "not json at all");
  Alcotest.(check bool) "wrong schema" true
    (raises "{\"schema\": \"something-else\", \"findings\": []}");
  Alcotest.(check bool) "finding without fingerprint" true
    (raises
       "{\"schema\": \"vtp-analysis-baseline-1\", \"findings\": [{\"rule\": \
        \"x\"}]}");
  (* the round trip through to_json parses back clean *)
  let json = Stats.Json.to_string (Baseline.to_json [ entry () ]) in
  Alcotest.(check bool) "round trip" false (raises json)

let test_sarif_shape () =
  let doc =
    Report.sarif
      ~rules:[ ("hot-box", "boxing in hot bodies") ]
      [ (entry (), true); (entry ~msg:"old boxing" (), false) ]
  in
  let s = Stats.Json.to_string doc in
  let has sub = Analysis.Pass.contains_sub ~sub s in
  Alcotest.(check bool) "driver name" true (has "\"vtp_lint\"");
  Alcotest.(check bool) "ruleId" true (has "\"ruleId\": \"hot-box\"");
  Alcotest.(check bool) "new finding" true (has "\"baselineState\": \"new\"");
  Alcotest.(check bool) "baselined finding" true
    (has "\"baselineState\": \"unchanged\"");
  Alcotest.(check bool) "fingerprints" true (has "\"vtp/v1\"")

(* ------------------------------------------------------------------ *)
(* Determinism of the driver itself *)

let test_jobs_contract () =
  (* a small in-memory tree always available *)
  let files =
    [
      ("lib/tfrc/equation.ml", eq_good);
      ("lib/core/a.ml", "let bad = ref 0\n");
      ("lib/core/b.ml", "let[@vtp.hot] f t = Some t.x\n");
      ("lib/core/c.ml", "let fine x = x + 1\n");
    ]
  in
  let f1 = Check.run_files ~jobs:1 files in
  let f4 = Check.run_files ~jobs:4 files in
  Alcotest.(check int) "same findings" (List.length f1) (List.length f4);
  List.iter2
    (fun (a : Pass.finding) (b : Pass.finding) ->
      Alcotest.(check string) "same rule order" a.Pass.rule b.Pass.rule;
      Alcotest.(check string) "same path order" a.Pass.path b.Pass.path;
      Alcotest.(check int) "same lines" a.Pass.line b.Pass.line)
    f1 f4;
  (* and over the real tree when visible, as byte-identical SARIF *)
  if Sys.file_exists "lib" && Sys.file_exists "bin" then begin
    let sarif jobs =
      let fs = Check.run_tree ~jobs ~roots:[ "lib"; "bin" ] () in
      Stats.Json.to_string
        (Report.sarif ~rules:[]
           (List.map (fun e -> (e, true)) (Report.of_check fs)))
    in
    Alcotest.(check string) "tree report identical at jobs 1 vs 4" (sarif 1)
      (sarif 4)
  end

let test_tree_is_clean () =
  (* The repository's own sources must stay clean under every rule,
     token lint included (the committed baseline is empty); only assert
     when the tree is visible — dune sandboxes test execution. *)
  if Sys.file_exists "lib" && Sys.file_exists "bin" then begin
    let fs = Check.run_tree ~roots:[ "lib"; "bin" ] () in
    List.iter
      (fun (f : Pass.finding) ->
        Printf.eprintf "unexpected: %s:%d %s %s\n" f.Pass.path f.Pass.line
          f.Pass.rule f.Pass.message)
      fs;
    Alcotest.(check int) "no findings in tree" 0 (List.length fs)
  end

let suite =
  [
    ("parser structure", `Quick, test_parser_structure);
    ("parser attributes", `Quick, test_parser_attributes);
    ("parser blind spots", `Quick, test_parser_blind_spots);
    ("parser bfun", `Quick, test_parser_bfun);
    ("top-level-state", `Quick, test_top_level_state);
    ("hashtbl-order", `Quick, test_hashtbl_order);
    ("wall-clock", `Quick, test_wall_clock);
    ("hot-closure", `Quick, test_hot_closure);
    ("hot-list", `Quick, test_hot_list);
    ("hot-box", `Quick, test_hot_box);
    ("hot-format", `Quick, test_hot_format);
    ("proto-const", `Quick, test_proto_const);
    ("test-only-escape", `Quick, test_test_only_escape);
    ("undeclared-export", `Quick, test_undeclared_export);
    ("fingerprints", `Quick, test_fingerprints);
    ("baseline classify", `Quick, test_baseline_classify);
    ("baseline malformed", `Quick, test_baseline_malformed);
    ("sarif shape", `Quick, test_sarif_shape);
    ("jobs contract", `Quick, test_jobs_contract);
    ("tree is clean", `Quick, test_tree_is_clean);
  ]
