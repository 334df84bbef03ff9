(* The parallel measurement engine: the domain pool's ordering and
   failure contract, sweep determinism across job counts (tables must
   be byte-identical), the profile downsampler's alignment invariant,
   and summary merging. *)

module M = Tailspace_core.Machine
module Tel = Tailspace_telemetry.Telemetry
module Pool = Tailspace_parallel.Pool
module R = Tailspace_harness.Runner
module X = Tailspace_harness.Experiments
module Expand = Tailspace_expander.Expand
module Json = Tel.Json

let with_test_pool ~jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* the pool *)

let test_pool_map_order () =
  with_test_pool ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun x -> x * x) xs)
    (Pool.map ~pool (fun x -> x * x) xs);
  (* the pool is reusable across maps *)
  Alcotest.(check (list string))
    "second map on the same pool" [ "0"; "1"; "2" ]
    (Pool.map ~pool string_of_int [ 0; 1; 2 ])

let test_pool_earliest_exception () =
  with_test_pool ~jobs:3 @@ fun pool ->
  match
    Pool.map ~pool
      (fun x -> if x mod 2 = 1 then failwith (string_of_int x) else x)
      [ 0; 1; 2; 3; 4 ]
  with
  | _ -> Alcotest.fail "expected the map to raise"
  | exception Failure msg ->
      Alcotest.(check string) "earliest failed item wins" "1" msg

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  (match Pool.map ~pool Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map on a shut-down pool must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (list int))
    "with_pool jobs:1 takes the serial path" [ 2; 4 ]
    (Pool.with_pool ~jobs:1 (fun pool ->
         Alcotest.(check bool) "no pool spawned" true (pool = None);
         Pool.map ?pool (fun x -> 2 * x) [ 1; 2 ]))

(* After a batch fails, the remaining queued thunks must be discarded
   without running — a poison request must not make the pool grind
   through (or re-crash on) everything queued behind it — and the
   workers must come back reusable. With one worker the schedule is
   deterministic: item 0 fails, so items 1..99 are discarded. *)
let test_pool_poisoned_batch_discards () =
  with_test_pool ~jobs:1 @@ fun pool ->
  let ran = Atomic.make 0 in
  (match
     Pool.map ~pool
       (fun x ->
         if x = 0 then failwith "poison"
         else begin
           Atomic.incr ran;
           x
         end)
       (List.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected the map to raise"
  | exception Failure msg ->
      Alcotest.(check string) "the poison item's failure" "poison" msg);
  Alcotest.(check int) "discarded thunks never ran" 0 (Atomic.get ran);
  Alcotest.(check (list int))
    "workers reusable after a poisoned batch" [ 2; 4; 6 ]
    (Pool.map ~pool (fun x -> 2 * x) [ 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* sweeps: parallel = serial *)

let countdown =
  Expand.program_of_string
    "(define (count n) (if (zero? n) 'ok (count (- n 1)))) count"

(* Free and Sfs read their free-variable sets from each machine's own
   annotation table, filled on demand, so the domains that fill them
   must not change a figure either. *)
let test_sweep_parallel_equals_serial () =
  let ns = [ 10; 20; 40; 80 ] in
  List.iter
    (fun variant ->
      let config = M.Config.make ~variant () in
      let serial = R.sweep ~config ~program:countdown ~ns () in
      with_test_pool ~jobs:4 @@ fun pool ->
      let parallel = R.sweep ~pool ~config ~program:countdown ~ns () in
      Alcotest.(check bool)
        (M.variant_name variant ^ ": identical measurement lists")
        true (serial = parallel))
    [ M.Tail; M.Free; M.Sfs ]

(* ------------------------------------------------------------------ *)
(* experiment tables byte-identical across job counts *)

let test_tables_jobs_invariant () =
  let ns = [ 8; 16; 24 ] in
  let thm25_serial = X.Thm25.render (X.Thm25.run ~ns ()) in
  let thm26_serial = X.Thm26.render (X.Thm26.run ~ns ()) in
  with_test_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check string) "thm25 table" thm25_serial
    (X.Thm25.render (X.Thm25.run ~pool ~ns ()));
  Alcotest.(check string) "thm26 table" thm26_serial
    (X.Thm26.render (X.Thm26.run ~pool ~ns ()))

(* ------------------------------------------------------------------ *)
(* starved sweeps degrade the table instead of raising *)

let test_starved_fits_degrade () =
  (* fuel too small for any point to answer: every exponent is
     unresolved and the tables still render *)
  let fuel = 5 in
  let thm26 = X.Thm26.run ~ns:[ 8; 12; 18 ] ~fuel () in
  Alcotest.(check bool) "thm26 u_tail exponent unresolved" true
    (thm26.X.Thm26.u_tail_exponent = None);
  Alcotest.(check bool) "thm26 s_sfs exponent unresolved" true
    (thm26.X.Thm26.s_sfs_exponent = None);
  Alcotest.(check bool) "thm26 rows hold no figure of an unanswered run" true
    (List.for_all
       (fun (r : X.Thm26.row) ->
         r.X.Thm26.u_tail = None && r.X.Thm26.s_tail = None
         && r.X.Thm26.s_sfs = None)
       thm26.X.Thm26.rows);
  Alcotest.(check bool) "thm26 renders" true
    (String.length (X.Thm26.render thm26) > 50);
  let cps = X.Cps.run ~ns:[ 16; 32; 64 ] ~fuel () in
  Alcotest.(check bool) "cps exponents unresolved" true
    (cps.X.Cps.tail_exponent = None && cps.X.Cps.gc_exponent = None);
  Alcotest.(check bool) "cps renders" true
    (String.length (X.Cps.render cps) > 50);
  (* Thm25 under the same starvation: cells lose their exponents but
     the sweep still renders *)
  let sweeps = X.Thm25.run ~ns:[ 8; 12; 18 ] ~fuel () in
  Alcotest.(check bool) "thm25 renders under starvation" true
    (String.length (X.Thm25.render sweeps) > 50)

(* ------------------------------------------------------------------ *)
(* profile downsampler invariant (QCheck) *)

let test_profile_invariant =
  QCheck.Test.make ~count:200 ~name:"profile samples aligned and increasing"
    QCheck.(
      triple (int_range 2 9) (int_range 1 4) (int_range 1 400))
    (fun (max_samples, stride, total_steps) ->
      let p = Tel.Profile.create ~stride ~max_samples () in
      for step = 0 to total_steps - 1 do
        Tel.Profile.sample p ~step ~space:(step + 7)
      done;
      let samples = Tel.Profile.samples p in
      let steps = List.map fst samples in
      let final_stride = Tel.Profile.stride p in
      List.length samples <= max_samples
      && List.for_all (fun s -> s mod final_stride = 0) steps
      && (let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | _ -> true
          in
          increasing steps)
      && List.for_all (fun (s, sp) -> sp = s + 7) samples)

(* ------------------------------------------------------------------ *)
(* summary merging *)

let test_merge_summaries () =
  let summarize src =
    let t = M.create_with M.Config.default in
    let tl = Tel.create () in
    ignore (M.exec_string ~opts:(M.Run_opts.make ~telemetry:tl ()) t src);
    Tel.summary tl
  in
  let a = summarize "(list 1 2 3)" in
  let b = summarize "((lambda (f) (f 1)) (lambda (x) x))" in
  let m = Tel.merge_summaries [ a; b ] in
  Alcotest.(check int) "steps sum" (a.Tel.steps + b.Tel.steps) m.Tel.steps;
  Alcotest.(check int) "alloc words sum"
    (a.Tel.alloc_words + b.Tel.alloc_words)
    m.Tel.alloc_words;
  Alcotest.(check int) "peak is max"
    (max a.Tel.peak_space b.Tel.peak_space)
    m.Tel.peak_space;
  Alcotest.(check int) "depth is max"
    (max a.Tel.max_cont_depth b.Tel.max_cont_depth)
    m.Tel.max_cont_depth;
  let count kind s =
    match List.assoc_opt kind s.Tel.allocations with Some c -> c | None -> 0
  in
  List.iter
    (fun kind ->
      Alcotest.(check int)
        (Tel.alloc_kind_name kind ^ " allocations sum")
        (count kind a + count kind b) (count kind m))
    Tel.all_alloc_kinds;
  Alcotest.(check bool) "empty merges to zero" true
    (Tel.merge_summaries [] = Tel.merge_summaries []);
  Alcotest.(check int) "zero steps" 0 (Tel.merge_summaries []).Tel.steps;
  let stuck = { a with Tel.stuck = Some "first" } in
  let stuck2 = { b with Tel.stuck = Some "second" } in
  Alcotest.(check bool) "first stuck wins" true
    ((Tel.merge_summaries [ stuck; stuck2 ]).Tel.stuck = Some "first")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "earliest exception wins" `Quick
            test_pool_earliest_exception;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "poisoned batch discards" `Quick
            test_pool_poisoned_batch_discards;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "parallel = serial" `Quick
            test_sweep_parallel_equals_serial;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "tables byte-identical across jobs" `Slow
            test_tables_jobs_invariant;
          Alcotest.test_case "starved fits degrade" `Quick
            test_starved_fits_degrade;
        ] );
      ( "telemetry",
        [
          QCheck_alcotest.to_alcotest test_profile_invariant;
          Alcotest.test_case "merge summaries" `Quick test_merge_summaries;
        ] );
    ]
