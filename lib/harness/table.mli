(** Fixed-width ASCII tables for the experiment reports. *)

val render : header:string list -> string list list -> string
(** Columns sized to their widest cell; numeric-looking cells are
    right-aligned, others left-aligned. The result ends with a
    newline. *)

val section : string -> string
(** A banner line for an experiment heading. *)

val measurements : Runner.measurement list -> string
(** A sweep's measurements as a table: input, space consumption, peak,
    GC runs, steps, linked peak (when measured), and the answer — the
    fields the sweep driver used to discard. *)

val census : Tailspace_provenance.Provenance.t -> string
(** A heap census as a table: one row per (site, phase), words, share
    of the peak, store cells, the site's source label, and the roots
    that retain it. *)

val census_diff :
  label_a:string ->
  label_b:string ->
  Tailspace_provenance.Provenance.delta list ->
  string
(** A per-site census comparison (the [spaceprof --diff] view):
    absolute and relative word deltas between two variants, largest
    absolute delta first. *)
