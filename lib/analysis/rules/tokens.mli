(** Token-window passes (family [lint]): [poly-compare], [float-eq],
    [random-call], [domain-spawn], [obj-magic], [assert-false] and
    [failwith-empty] over each file's tokens, plus the tree-shape
    [missing-mli].  Heuristic by design: [float-eq] flags [=]/[<>] on
    float {e literals} (the decidable token-level core of "no
    polymorphic equality on floats"), not every float-typed equality. *)

val passes : Pass.t list
