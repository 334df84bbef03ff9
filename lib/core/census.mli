(** Run-time census builder for the space-provenance profiler.

    A [Census.t] accompanies one measured run. The machine feeds it
    through two hooks:

    - {!instrument} adds a store allocation hook that tags every
      allocation with the current allocation site and phase
      ({!set_alloc_site});
    - {!stash_flat}/{!stash_linked}/{!stash_log} capture the exact
      configuration at every strict peak increase (called at points
      where the store has just been collected, so every cell is
      reachable).

    After the run, {!flat_census}, {!linked_census} and {!log_census}
    decompose the
    stashed peak configurations into per-site rows that sum {e exactly}
    to the telemetry peaks: the flat census telescopes the Figure 7 sum
    (store cells by allocation site, frames by pushing site, register
    environment, control, Halt) and additionally builds retained-by
    edges and collapsed flamegraph stacks from a first-retainer-wins
    BFS; the linked census mirrors {!Space.linked_config_space} with
    each deduplicated (identifier, location) binding charged to the
    site of the cell it names; the log census is the linked
    decomposition with every charge scaled by the stashed store's
    {!Space.pointer_bits} (bit-units).

    Site ids come from the annotation pass ({!Annot.site_id}), so they
    are stable across variants; [-1] rows are synthetic machine
    components distinguished by phase. *)

module Ast = Tailspace_ast.Ast
module Annot = Tailspace_analysis.Annot
module P = Tailspace_provenance.Provenance

type control = [ `Expr of Ast.expr | `Value of Types.value ]
type t

val create : unit -> t

val set_annot : t -> Annot.t -> unit
(** The annotation table whose site ids name allocation sites. Without
    one, every site resolves to [-1]. *)

val set_alloc_site : t -> site:int -> phase:P.phase option -> unit
(** Declare the provenance of upcoming allocations: the site id and an
    optional phase override. With [phase = None] the phase is inferred
    from the allocated value's kind. *)

val instrument : t -> Store.t -> Store.t
(** Add the site-tagging allocation hook ({!Store.on_alloc}). *)

(** {1 Peak stashes} *)

val stash_flat :
  t -> control:control -> env:Types.Env.t -> cont:Types.cont -> store:Store.t -> unit

val stash_linked :
  t -> control:control -> env:Types.Env.t -> cont:Types.cont -> store:Store.t -> unit

val stash_log :
  t -> control:control -> env:Types.Env.t -> cont:Types.cont -> store:Store.t -> unit

(** {1 Census assembly} *)

val flat_census : t -> peak:int -> P.t option
(** Decompose the stashed flat-peak configuration. [None] if nothing
    was stashed. [Provenance.total] of the result equals [peak], and
    the flamegraph stacks partition the same total. *)

val linked_census : t -> peak:int -> P.t option
(** Decompose the stashed linked-peak configuration; sums to [peak]. *)

val log_census : t -> peak:int -> P.t option
(** Decompose the stashed log-peak configuration into bit-unit rows;
    sums to [peak]. *)
