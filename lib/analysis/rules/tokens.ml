(* Token-window passes: short patterns over the lexed stream that need
   no structure — polymorphic compare and float equality in protocol
   code, global Random, ad-hoc domains, Obj.magic, uninformative
   failures — plus the tree-shape missing-[.mli] check.

   Every finding carries an empty context: these rules are anchored on
   a token, not on a binding, so their fingerprints depend only on
   rule, path and message. *)

let family = "lint"

let tok (ts : Lexer.token array) i =
  if i >= 0 && i < Array.length ts then Some ts.(i) else None

let text_at ts i = match tok ts i with Some t -> t.Lexer.text | None -> ""

let first_component s =
  match String.index_opt s '.' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Run [f] over every token; [Some message] is a finding on that
   token's line. *)
let scan rule f (sc : Pass.source_ctx) =
  let ts = sc.Pass.sc_tokens in
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      match f ts i t with
      | Some message ->
          out :=
            Pass.finding ~rule ~family ~path:sc.Pass.sc_path
              ~line:t.Lexer.tline ~message ~context:""
            :: !out
      | None -> ())
    ts;
  List.rev !out

(* [=] / [<>] applied to a float literal.  A bare [=] is also a binder
   (let, record fields, labelled defaults), so an equality is only
   flagged when the token before the left operand introduces an
   expression context. *)
let float_eq ts i (t : Lexer.token) =
  let expr_intro = function
    | "if" | "when" | "then" | "else" | "&&" | "||" | "(" | "begin" | "not"
    | "assert" | "->" | "=" | "<>" | "while" | "do" ->
        true
    | _ -> false
  in
  if t.kind <> Op || (t.text <> "=" && t.text <> "<>") then None
  else
    let left = tok ts (i - 1) and right = tok ts (i + 1) in
    let float_operand =
      (match left with Some l -> l.kind = Float_lit | None -> false)
      || match right with Some r -> r.kind = Float_lit | None -> false
    in
    let simple_left =
      match left with
      | Some l -> (
          match l.kind with
          | Ident | Float_lit | Int_lit -> true
          | String_lit | Op -> false)
      | None -> false
    in
    if not float_operand then None
    else if t.text = "<>" then
      Some "polymorphic <> on a float; use explicit Float comparison"
    else if not simple_left then
      (* e.g. [let f () = 8.0 *. x]: a binder, not a comparison *)
      None
    else
      (* left operand is a single path/literal token at i-1; the token
         before it decides binder vs expression *)
      let before = text_at ts (i - 2) in
      let is_opt_default = before = "(" && text_at ts (i - 3) = "?" in
      if expr_intro before && not is_opt_default then
        Some
          "polymorphic = on a float; use Float.equal (or an epsilon \
           comparison)"
      else None

(* Bare [compare] / [Stdlib.compare]: the polymorphic structural compare
   raises on functional values, is wrong on floats (nan) and silently
   depends on record field order — protocol code must use typed
   comparators (Int.compare, Float.compare, Serial.compare, ...). *)
let poly_compare ts i (t : Lexer.token) =
  if t.kind <> Ident then None
  else if t.text = "Stdlib.compare" || t.text = "Poly.compare" then
    Some
      (t.text
      ^ " is polymorphic; use a typed comparator (Int.compare, \
         Float.compare, Serial.compare, ...)")
  else if t.text = "compare" then
    (* exempt: definitions (let compare), labels (~compare[:]),
       record-field declarations (compare : ...) *)
    let prev = text_at ts (i - 1) and next = text_at ts (i + 1) in
    if prev = "let" || prev = "~" || prev = "and" || next = ":" || next = "="
    then None
    else Some "bare polymorphic compare; use a typed comparator"
  else None

let random_call _ _ (t : Lexer.token) =
  if t.kind = Ident && first_component t.text = "Random" then
    Some
      "global Random used; draw from Engine.Rng (seeded, splittable) \
       instead"
  else None

let domain_spawn _ _ (t : Lexer.token) =
  if t.kind = Ident && String.ends_with ~suffix:"Domain.spawn" t.text then
    Some
      "Domain.spawn outside Engine.Pool; submit tasks to the \
       work-stealing pool instead"
  else None

let obj_magic _ _ (t : Lexer.token) =
  if t.kind = Ident && t.text = "Obj.magic" then
    Some "Obj.magic defeats the type system"
  else None

let assert_false ts i (t : Lexer.token) =
  if t.kind = Ident && t.text = "assert" && text_at ts (i + 1) = "false" then
    Some
      "bare 'assert false'; raise an informative error \
       (invalid_arg/failwith with a message) instead"
  else None

let failwith_empty ts i (t : Lexer.token) =
  if t.kind = Ident && t.text = "failwith" && text_at ts (i + 1) = "\"\""
  then Some "failwith with an empty message"
  else None

(* Every library module must publish an interface.  "lib/" may be the
   start of a relative path or a component of an absolute one. *)
let in_lib f =
  String.starts_with ~prefix:"lib/" f || Pass.contains_sub ~sub:"/lib/" f

let missing_mli (tc : Pass.tree_ctx) =
  List.filter_map
    (fun f ->
      if
        Filename.check_suffix f ".ml"
        && in_lib f
        && not (List.mem (f ^ "i") tc.Pass.tc_files)
      then
        Some
          (Pass.finding ~rule:"missing-mli" ~family ~path:f ~line:1
             ~message:"library module has no .mli interface" ~context:"")
      else None)
    tc.Pass.tc_files

let protocol_dirs =
  [ "lib/tfrc"; "lib/sack"; "lib/core"; "lib/fuzz"; "lib/trace" ]

let token_pass ~id ~doc ~rationale ~bad ~good ?(dirs = []) ?(allow = []) f =
  {
    Pass.id;
    family;
    doc;
    rationale;
    bad;
    good;
    dirs;
    allow;
    kind = File_pass (scan id f);
  }

let passes : Pass.t list =
  [
    token_pass ~id:"poly-compare"
      ~doc:
        "bare compare/Stdlib.compare in protocol code (floats and \
         protocol records need typed comparators)"
      ~rationale:
        "Polymorphic compare raises on functional values, orders nan \
         inconsistently and silently depends on record field order, so \
         protocol state comparisons drift when a type is refactored."
      ~bad:"let newer a b = compare a.seq b.seq > 0"
      ~good:"let newer a b = Serial.compare a.seq b.seq > 0"
      ~dirs:protocol_dirs poly_compare;
    token_pass ~id:"float-eq"
      ~doc:"polymorphic =/<> applied to a float literal"
      ~rationale:
        "Structural =/<> on floats is exact bit equality through the \
         polymorphic comparator: nan <> nan surprises, and rates that \
         differ by one ulp take the wrong branch silently."
      ~bad:"if rtt = 0.0 then init_window t"
      ~good:"if Float.equal rtt 0.0 then init_window t"
      ~dirs:(protocol_dirs @ [ "lib/stats" ])
      float_eq;
    token_pass ~id:"random-call"
      ~doc:
        "Random.* outside lib/engine/rng.ml (experiments must be \
         reproducible from the root seed)"
      ~rationale:
        "The global Random state is shared, unseeded by default and \
         domain-local in OCaml 5, so any draw outside the engine's \
         splittable RNG makes runs irreproducible and schedule-dependent."
      ~bad:"let jitter () = Random.float 0.01"
      ~good:"let jitter rng = Engine.Rng.float rng 0.01"
      ~allow:[ "lib/engine/rng.ml" ] random_call;
    token_pass ~id:"domain-spawn"
      ~doc:
        "Domain.spawn outside lib/engine/pool.ml (all parallelism goes \
         through the work-stealing pool)"
      ~rationale:
        "Ad-hoc domains bypass the pool's determinism contract \
         (submission-order collection, bounded worker count) and its \
         shutdown accounting, so results depend on the scheduler."
      ~bad:"let d = Domain.spawn (fun () -> run seed)"
      ~good:"Engine.Pool.with_pool (fun p -> Engine.Pool.map p run seeds)"
      ~allow:[ "lib/engine/pool.ml" ] domain_spawn;
    token_pass ~id:"obj-magic" ~doc:"Obj.magic anywhere"
      ~rationale:
        "Obj.magic defeats the type system; a representation change \
         anywhere upstream becomes a segfault at a distance."
      ~bad:"let id = Obj.magic handle" ~good:"let id = Handle.to_int handle"
      obj_magic;
    token_pass ~id:"assert-false"
      ~doc:"bare 'assert false' without an informative message"
      ~rationale:
        "assert false crashes with no context and disappears under \
         -noassert; unreachable branches should raise an informative, \
         always-on error."
      ~bad:"| Unknown -> assert false"
      ~good:"| Unknown -> invalid_arg \"Frame.decode: unknown kind\""
      assert_false;
    token_pass ~id:"failwith-empty" ~doc:"failwith \"\" carries no diagnostic"
      ~rationale:
        "An empty Failure message turns a precise protocol violation \
         into an unactionable stack trace."
      ~bad:"if n < 0 then failwith \"\""
      ~good:"if n < 0 then failwith \"Ring.push: negative length\""
      failwith_empty;
    {
      id = "missing-mli";
      family;
      doc = "library .ml without a sibling .mli";
      rationale =
        "Interface-less library modules export every helper, so \
         internal refactors break downstream code and the hygiene \
         passes cannot reason about the intended API surface.";
      bad = "lib/foo/util.ml with no lib/foo/util.mli";
      good = "lib/foo/util.mli declaring the exported values";
      dirs = [ "lib" ];
      allow = [];
      kind = Tree_pass missing_mli;
    };
  ]
