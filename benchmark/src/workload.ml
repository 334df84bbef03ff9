module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families

(* SplitMix64: the inputs of a seed must not change when the OCaml
   runtime's own generator does, or the recorded expected outputs
   would silently stop matching. *)
module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int seed }

  let next g =
    g.s <- Int64.add g.s 0x9E3779B97F4A7C15L;
    let z = g.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform in [0, 1) from the top 53 bits *)
  let unit g =
    Int64.to_float (Int64.shift_right_logical (next g) 11) /. 9007199254740992.

  let int g bound = min (bound - 1) (int_of_float (unit g *. Float.of_int bound))

  let shuffle g a =
    for i = Array.length a - 1 downto 1 do
      let j = int g (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
end

(* One program measured on some variants over a size range. *)
type group = {
  name : string;
  source : int -> string;  (** most ignore the size; [P_k] is built from it *)
  variants : Machine.variant list;
  lo : int;
  hi : int;
  draws : int;  (** sizes per variant *)
  checks : (int * string) list;  (** the corpus's hand-written answers *)
}

type t = {
  name : string;
  models : Space_model.t list;
  groups : group list;
  rows_by_variant : bool;
      (** per-row [us_per_step]: one row per variant instead of one per
          group *)
}

type point = {
  label : string;
  row : string;
  variant : Machine.variant;
  n : int;
  models : Space_model.t list;
  source : string;
  checks : (int * string) list;
}

let const s _ = s

let group ?(checks = []) ?(draws = 8) name source variant lo hi =
  { name; source; variants = [ variant ]; lo; hi; draws; checks }

let corpus_group name variant lo hi =
  match Corpus.find name with
  | Some e -> group ~checks:e.checks name (const e.source) variant lo hi
  | None -> invalid_arg ("Workload: no corpus entry " ^ name)

(* Constant live space under I_tail: plain-step cost and the prelude
   re-trace of each collection. *)
let loop_steady =
  {
    name = "loop-steady";
    models = [ Space_model.Flat ];
    rows_by_variant = false;
    groups =
      Machine.
        [
          corpus_group "countdown" Tail 1250 2500;
          corpus_group "even-odd" Tail 1250 2500;
          group "cps-loop" (const Families.cps_loop) Tail 300 600;
          corpus_group "mutual-ack" Tail 750 1500;
          corpus_group "fib-iter" Tail 110 220;
          corpus_group "fib-naive" Tail 13 15;
        ];
  }

(* The live set grows with N, so nearly every new peak re-traces
   everything and frees nothing: collection scheduling. *)
let stack_growth =
  {
    name = "stack-growth";
    models = [ Space_model.Flat ];
    rows_by_variant = false;
    groups =
      Machine.
        [
          corpus_group "countdown" Gc 135 270;
          group "cps-loop" (const Families.cps_loop) Gc 80 160;
          corpus_group "append" Tail 42 85;
          group "sep-stack-gc" (const Families.separator_stack_gc) Stack 18 31;
          group "sep-tail-evlis" (const Families.separator_tail_evlis) Tail 11 20;
          corpus_group "cps-fib" Stack 5 7;
        ];
  }

(* Flat, Linked and Log together: a collection and a dedup walk on
   every step, the only place lazy heavy measurement can show. The cheap
   sfs group comes first because {!tiny} takes the first two groups. *)
let heavy_models =
  {
    name = "heavy-models";
    models = Space_model.[ Flat; Linked; Log ];
    rows_by_variant = false;
    groups =
      Machine.
        [
          group "sep-evlis-sfs" (const Families.separator_evlis_sfs) Sfs 20 40;
          corpus_group "countdown" Tail 4 8;
          corpus_group "countdown" Gc 2 4;
          group "pk" Families.pk_program Tail 1 3;
          corpus_group "fib-naive" Tail 2 4;
          group "sep-tail-evlis" (const Families.separator_tail_evlis) Evlis
            2 4;
        ];
  }

(* Every non-slow corpus entry on all six variants: set-up, bignums,
   vectors, call/cc and every variant's rules.
   N is drawn from [c/4, c/2], c being the entry's smallest hand-checked
   input: over [c/2, c] cps-fib alone, exponential in N and quadratic
   under I_gc and I_stack, made up a third of a pass on some seeds. *)
let corpus_grid =
  {
    name = "corpus-grid";
    models = [ Space_model.Flat ];
    rows_by_variant = true;
    groups =
      List.filter_map
        (fun (e : Corpus.entry) ->
          if e.slow then None
          else
            let c = List.fold_left (fun m (n, _) -> min m n) max_int e.checks in
            Some
              {
                name = e.name;
                source = const e.source;
                variants = Machine.all_variants;
                lo = (c + 3) / 4;
                hi = (c + 1) / 2;
                draws = 1;
                checks = e.checks;
              })
        Corpus.all;
  }

let all = [ loop_steady; stack_growth; heavy_models; corpus_grid ]
let names = List.map (fun (w : t) -> w.name) all
let find name = List.find_opt (fun (w : t) -> String.equal w.name name) all

(* [k] fractions of [0, 1), one in each stratum [i/k, (i+1)/k), strata
   [i] and [k-1-i] mirroring one offset. Each size is still uniform
   over the range, but the sizes of one group always sum to the same
   total, so a pass costs nearly the same on every seed. *)
let fractions rng k =
  let f = Array.make k 0. in
  for i = 0 to (k / 2) - 1 do
    f.(i) <- (float i +. Rng.unit rng) /. float k;
    f.(k - 1 - i) <- 1. -. f.(i)
  done;
  if k mod 2 = 1 then f.(k / 2) <- (float (k / 2) +. Rng.unit rng) /. float k;
  Rng.shuffle rng f;
  f

let label (g : group) variant = g.name ^ "/" ^ Machine.variant_name variant

let row_name (w : t) g variant =
  if w.rows_by_variant then Machine.variant_name variant else label g variant

let make_point (w : t) (g : group) variant n =
  {
    label = label g variant;
    row = row_name w g variant;
    variant;
    n;
    models = w.models;
    source = g.source n;
    checks = g.checks;
  }

let generate (w : t) ~seed =
  let rng = Rng.make seed in
  let points =
    List.concat_map
      (fun (g : group) ->
        let vs = Array.of_list g.variants in
        let f = fractions rng (g.draws * Array.length vs) in
        List.init (Array.length f) (fun i ->
            let n =
              g.lo + int_of_float (Float.round (f.(i) *. float (g.hi - g.lo)))
            in
            make_point w g vs.(i mod Array.length vs) n))
      w.groups
    |> Array.of_list
  in
  Rng.shuffle rng points;
  points

(* Two very small points of the workload's first groups: the benchmark
   path end to end in milliseconds. *)
let tiny (w : t) =
  List.filteri (fun i _ -> i < 2) w.groups
  |> List.map (fun (g : group) ->
         make_point w g (List.hd g.variants) (g.lo / 100))
  |> Array.of_list

(* The workload's [us_per_step] rows, in definition order. *)
let rows (w : t) =
  List.fold_left
    (fun acc (g : group) ->
      List.fold_left
        (fun acc v ->
          let r = row_name w g v in
          if List.mem r acc then acc else acc @ [ r ])
        acc g.variants)
    [] w.groups
