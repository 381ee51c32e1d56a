(** Rough terminal plots, good enough to eyeball the shape of a figure.

    Used by the bench harness and the CLI to render CDFs and traces the way
    the paper plots them, without any graphics dependency. *)

val cdfs : ?x_label:string -> (string * Cdf.t) list -> string
(** Overlay several CDFs on a 64x16 grid; each series gets a distinct
    glyph. *)

val scatter :
  ?x_label:string -> ?y_label:string -> (string * (float * float) list) list -> string
(** Overlay several point series (e.g. Fig 2a's per-subflow seq traces) on
    a 64x16 grid. *)
