let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so that spreads printed here match the ones an acceptance
   script computes from the same values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = n + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > n - 1 then n - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
  in
  (q 1, q 2, q 3)

let min_beyond = 10

let beyond ~p n = float n *. (100. -. p) /. 100.

(* with a little slack, so that 10 000 x (100 - 99.9) / 100 counts as 10 *)
let enough_beyond ~p n = beyond ~p n >= float min_beyond -. 1e-6

(* A tail percentile is reported only when at least [min_beyond]
   samples lie above it: with fewer, one slow outlier decides it. *)
let percentile ~p samples =
  let n = Array.length samples in
  if n = 0 || not (enough_beyond ~p n) then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples give %.1f" p
         min_beyond n (beyond ~p n))
  else begin
    let a = Array.copy samples in
    Array.sort Float.compare a;
    let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
    Ok a.(max 0 (rank - 1))
  end

let ladder = [ 99.9; 99.; 90.; 50. ]

let highest_percentile n =
  List.find_opt (fun p -> enough_beyond ~p n) ladder

(* Exact order statistics of integer samples (nanosecond gaps) in
   constant memory: one counter per value below [limit], and the rare
   larger values kept as they are. *)
module Hist = struct
  let limit = 1 lsl 18

  type t = { counts : int array; mutable over : int list; mutable n : int }

  let create () = { counts = Array.make limit 0; over = []; n = 0 }

  let add h v =
    let v = max 0 v in
    if v < limit then h.counts.(v) <- h.counts.(v) + 1
    else h.over <- v :: h.over;
    h.n <- h.n + 1

  let count h = h.n

  (* Nearest-rank percentile, as {!percentile}. *)
  let percentile h ~p =
    if h.n = 0 then None
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float h.n))) in
      let rec scan v seen =
        if v >= limit then
          let over = List.sort compare h.over in
          Some (List.nth over (rank - seen - 1))
        else
          let seen' = seen + h.counts.(v) in
          if seen' >= rank then Some v else scan (v + 1) seen'
      in
      scan 0 0
    end
end
