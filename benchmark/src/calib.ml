(* The host's speed, measured next to the work it scales.

   On a shared host the same pass can take half as long again when the
   neighbours are busy, for seconds at a time, and CPU time drifts with
   wall time, so neither hides it. Every timed point and set-up is
   therefore followed by a calibration slice: a fixed piece of work that
   runs no code of the repository but is shaped like the machine's own
   inner loop (a tree built and summed, a hash table filled and probed).
   A time is reported as it would read on a host where one slice takes
   [nominal_ns]: scaled by [nominal_ns] over the median of the slices
   around it. A change to the machines moves the scaled times as it
   moves the raw ones; a busy neighbour moves both the work and the
   slices, and cancels. *)

type tree = Leaf | Node of tree * int * tree

let rec build d k =
  if d = 0 then Leaf else Node (build (d - 1) (2 * k), k, build (d - 1) ((2 * k) + 1))

let rec total = function Leaf -> 0 | Node (l, k, r) -> total l + k + total r

let work () =
  let h = Hashtbl.create 16 in
  for i = 0 to 2000 do
    Hashtbl.replace h (i * 7919) i
  done;
  let s = ref (total (build 12 1)) in
  for i = 0 to 2000 do
    s := !s + Hashtbl.find h (i * 7919)
  done;
  !s

(* One slice, in nanoseconds. *)
let slice () =
  let a = Stats.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  Stats.now_ns () - a

(* About one slice on the calibration host when it is quiet, so that
   scaled times read close to that host's raw ones. *)
let nominal_ns = 350_000.

(* Slices on each side of a time that scale it. *)
let window = 2

(* [scales slices]: the factor for the time measured just before slice
   [i], from the median of the slices [i - window .. i + window]. *)
let scales (slices : int array) =
  let n = Array.length slices in
  Array.init n (fun i ->
      let lo = max 0 (i - window) and hi = min (n - 1) (i + window) in
      let near = List.init (hi - lo + 1) (fun j -> float slices.(lo + j)) in
      nominal_ns /. Stats.median near)
