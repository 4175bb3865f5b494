(** Shared vocabulary of the analyzer ({!Check}): findings, the rule
    record with its two pass shapes, and token-classification helpers
    used by more than one rule family. *)

type finding = {
  rule : string;
  family : string;
  path : string;
  line : int;
  message : string;
  context : string;  (** enclosing binding ("Mod.name") or rule anchor *)
}

type source_ctx = {
  sc_path : string;
  sc_tokens : Lexer.token array;
  sc_items : Parser.item list;
  sc_contexts : Parser.context list;
}

type tree_ctx = {
  tc_files : string list;  (** normalised paths of every scanned file *)
  tc_tokens : string -> Lexer.token array option;
      (** tokens by normalised path, lexed at most once per file *)
}

type kind =
  | File_pass of (source_ctx -> finding list)
  | Tree_pass of (tree_ctx -> finding list)

type t = {
  id : string;
  family : string;
  doc : string;
  rationale : string;  (** why the pattern is hazardous (for [--explain]) *)
  bad : string;  (** minimal offending example *)
  good : string;  (** the accepted fix *)
  dirs : string list;
  allow : string list;
  kind : kind;
}

val normalise_path : string -> string
(** Strip a leading ["./"] so directory prefixes match. *)

val contains_sub : sub:string -> string -> bool

val applies : t -> string -> bool
(** Directory scoping + allowlist, on normalised paths. *)

val components : string -> string list
(** Dotted-path components of a glued identifier token. *)

val last_component : string -> string

val strip_stdlib : string -> string
(** Drop one leading ["Stdlib."] qualifier. *)

val expr_position : Lexer.token array -> int -> bool
(** Heuristic: is the token at this index in expression (not pattern)
    position?  Used for [Some], [::] and list literals. *)

val finding :
  rule:string ->
  family:string ->
  path:string ->
  line:int ->
  message:string ->
  context:string ->
  finding
