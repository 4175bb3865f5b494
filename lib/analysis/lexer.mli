(** The token scanner shared by {!Parser} and every analysis pass.

    It lexes OCaml just deeply enough to be trustworthy — comments
    (nested, with embedded strings), string/char literals, dotted paths
    glued into single tokens, float vs int literals — so rules never
    fire inside comments or strings. *)

type token_kind = Ident | Float_lit | Int_lit | String_lit | Op

type token = { kind : token_kind; text : string; tline : int }

val tokenize : string -> token array
