(* Each token-lint rule (the [lint] family of the analyzer) gets a
   fixture that fires and a fixture that stays clean, driven through
   [Check.run_string] (token rules) or [Check.run_files] (tree-shape
   rules) so no files need creating. *)

module Check = Analysis.Check
module Pass = Analysis.Pass
module Report = Analysis.Report

let ids fs = List.map (fun (f : Pass.finding) -> f.Pass.rule) fs

let fires id ~path src = List.mem id (ids (Check.run_string ~path src))

let check_fires id ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on %S" id src)
    true (fires id ~path src)

let check_clean id ~path src =
  Alcotest.(check bool)
    (Printf.sprintf "%s stays quiet on %S" id src)
    false (fires id ~path src)

let proto = "lib/tfrc/fixture.ml"

let test_poly_compare () =
  check_fires "poly-compare" ~path:proto "let c = compare a b\n";
  check_fires "poly-compare" ~path:proto "List.sort Stdlib.compare xs\n";
  check_clean "poly-compare" ~path:proto "let c = Int.compare a b\n";
  (* definitions and labels are exempt *)
  check_clean "poly-compare" ~path:proto "let compare a b = Int.compare a b\n";
  check_clean "poly-compare" ~path:proto "sort ~compare:Int.compare xs\n";
  (* out of scope: the rule only polices protocol directories *)
  check_clean "poly-compare" ~path:"lib/workload/media.ml" "let c = compare a b\n"

let test_float_eq () =
  check_fires "float-eq" ~path:proto "let f x = if x = 0.0 then 1 else 2\n";
  check_fires "float-eq" ~path:proto "let g a = a <> 1.0\n";
  (* binders and optional-argument defaults are not comparisons *)
  check_clean "float-eq" ~path:proto "let x = 1.0\n";
  check_clean "float-eq" ~path:proto "let f ?(eps = 1e-9) () = eps\n";
  check_clean "float-eq" ~path:proto "let rate ~s ~r () = 8.0 *. s /. r\n";
  check_clean "float-eq" ~path:proto "let f x = Float.equal x 0.0\n"

let test_random_call () =
  check_fires "random-call" ~path:proto "let x = Random.int 5\n";
  check_fires "random-call" ~path:"bin/tool.ml" "Random.self_init ()\n";
  (* the seeded shim is the one allowed user *)
  check_clean "random-call" ~path:"lib/engine/rng.ml" "let x = Random.int 5\n";
  check_clean "random-call" ~path:proto "let x = Engine.Rng.int rng 5\n"

let test_domain_spawn () =
  check_fires "domain-spawn" ~path:proto "let d = Domain.spawn work\n";
  check_fires "domain-spawn" ~path:"bin/tool.ml"
    "ignore (Stdlib.Domain.spawn f)\n";
  (* the pool is the one allowed user *)
  check_clean "domain-spawn" ~path:"lib/engine/pool.ml"
    "let d = Domain.spawn work\n";
  check_clean "domain-spawn" ~path:proto
    "let x = Engine.Pool.with_pool run\n";
  (* other Domain.* uses (DLS, join) stay legal everywhere *)
  check_clean "domain-spawn" ~path:proto
    "let k = Domain.DLS.new_key (fun () -> ref None)\n";
  check_clean "domain-spawn" ~path:proto "Domain.join d\n"

let test_obj_magic () =
  check_fires "obj-magic" ~path:"lib/workload/media.ml" "let y = Obj.magic x\n";
  check_clean "obj-magic" ~path:"lib/workload/media.ml" "let y = Obj.repr x\n"

let test_assert_false () =
  check_fires "assert-false" ~path:proto "let f () = assert false\n";
  check_clean "assert-false" ~path:proto "let f x = assert (x > 0)\n"

let test_failwith_empty () =
  check_fires "failwith-empty" ~path:proto "let f () = failwith \"\"\n";
  check_clean "failwith-empty" ~path:proto "let f () = failwith \"boom\"\n"

let test_missing_mli () =
  let has files =
    List.mem "missing-mli"
      (ids (Check.run_files (List.map (fun f -> (f, "")) files)))
  in
  Alcotest.(check bool) "lib .ml without .mli" true (has [ "lib/foo/a.ml" ]);
  Alcotest.(check bool)
    "paired .mli satisfies" false
    (has [ "lib/foo/a.ml"; "lib/foo/a.mli" ]);
  Alcotest.(check bool) "executables exempt" false (has [ "bin/b.ml" ])

let test_lexer_blind_spots () =
  (* Findings must never come from comments or string literals. *)
  check_clean "assert-false" ~path:proto "(* assert false *) let x = 1\n";
  check_clean "assert-false" ~path:proto "let s = \"assert false\"\n";
  check_clean "random-call" ~path:proto
    "(* nested (* Random.int *) with a \"*)\" string *) let x = 1\n";
  (* ... and line numbers survive multi-line comments *)
  let fs =
    Check.run_string ~path:proto "(* one\n   two *)\nlet f () = assert false\n"
  in
  match fs with
  | [ f ] -> Alcotest.(check int) "line after comment" 3 f.Pass.line
  | _ -> Alcotest.fail "expected exactly one finding"

let test_severity_and_format () =
  let fs = Check.run_string ~path:proto "let f () = assert false\n" in
  match Report.of_check fs with
  | [ e ] ->
      Alcotest.(check string) "lint family, no context" "lint/"
        (e.Report.family ^ "/" ^ e.Report.context);
      Alcotest.(check string) "machine-readable rendering"
        "lib/tfrc/fixture.ml:1: [assert-false] error: bare 'assert false'; \
         raise an informative error (invalid_arg/failwith with a message) \
         instead"
        (Format.asprintf "%a" Report.pp_entry (e, true))
  | _ -> Alcotest.fail "expected exactly one finding"

let test_tree_is_clean () =
  (* The repository's own sources must stay clean under the lint family;
     run from the project root when available (dune runs tests in a
     sandbox dir, so only assert when the tree is visible). *)
  if Sys.file_exists "lib" && Sys.file_exists "bin" then
    let lint =
      List.filter
        (fun (f : Pass.finding) -> String.equal f.Pass.family "lint")
        (Check.run_tree ~roots:[ "lib"; "bin" ] ())
    in
    Alcotest.(check int) "no lint findings in tree" 0 (List.length lint)

let lint_ids =
  [
    "poly-compare"; "float-eq"; "random-call"; "domain-spawn"; "obj-magic";
    "assert-false"; "failwith-empty"; "missing-mli";
  ]

let test_registry () =
  (* One registry: a duplicate id would make --explain and --rule
     ambiguous. *)
  let all = List.map (fun (p : Pass.t) -> p.Pass.id) Check.passes in
  Alcotest.(check int) "18 passes" 18 (List.length all);
  Alcotest.(check int) "ids unique" 18
    (List.length (List.sort_uniq String.compare all));
  List.iter
    (fun id ->
      match Check.find_pass id with
      | Some p ->
          Alcotest.(check string) (id ^ " is a lint pass") "lint" p.Pass.family
      | None -> Alcotest.failf "find_pass %s" id)
    lint_ids

let suite =
  [
    ("poly-compare", `Quick, test_poly_compare);
    ("float-eq", `Quick, test_float_eq);
    ("random-call", `Quick, test_random_call);
    ("domain-spawn", `Quick, test_domain_spawn);
    ("obj-magic", `Quick, test_obj_magic);
    ("assert-false", `Quick, test_assert_false);
    ("failwith-empty", `Quick, test_failwith_empty);
    ("missing-mli", `Quick, test_missing_mli);
    ("lexer blind spots", `Quick, test_lexer_blind_spots);
    ("severity and format", `Quick, test_severity_and_format);
    ("tree is clean", `Quick, test_tree_is_clean);
    ("registry", `Quick, test_registry);
  ]
