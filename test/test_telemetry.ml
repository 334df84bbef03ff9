(* The telemetry layer: counter/result agreement across all six
   variants, deterministic exact counts on fixed programs, the stuck
   ring buffer, JSON round-trips, the step stream and config sink, profile
   downsampling, and the alternative engines' instrumentation. *)

module M = Tailspace_core.Machine
module Tel = Tailspace_telemetry.Telemetry
module Expand = Tailspace_expander.Expand
module Secd = Tailspace_engines.Secd
module Den = Tailspace_engines.Denotational
module R = Tailspace_harness.Runner
module Table = Tailspace_harness.Table

let run ?(variant = M.Tail) ?stack_policy ?(ring = 0) ?sink ?profile src =
  let t = M.create_with (M.Config.make ~variant ?stack_policy ()) in
  let tl = Tel.create ?sink ~ring ?profile () in
  let r = M.exec_string ~opts:(M.Run_opts.make ~telemetry:tl ()) t src in
  (r, tl)

let count_25 =
  "(define (count n) (if (zero? n) 'ok (count (- n 1)))) (count 25)"

(* The summary's counters must agree with the result record, on every
   variant. *)
let test_counters_match_result () =
  List.iter
    (fun variant ->
      let name = M.variant_name variant in
      let r, tl = run ~variant count_25 in
      (match r.M.outcome with
      | M.Done { answer; _ } -> Alcotest.(check string) (name ^ " answer") "ok" answer
      | _ -> Alcotest.failf "%s: expected Done" name);
      Alcotest.(check int) (name ^ " steps") r.M.steps (Tel.steps tl);
      Alcotest.(check int) (name ^ " gc runs") r.M.gc_runs (Tel.gc_runs tl);
      Alcotest.(check int) (name ^ " peak") (M.peak_space r) (Tel.peak_space tl);
      let s = Tel.summary tl in
      Alcotest.(check int) (name ^ " summary steps") r.M.steps s.Tel.steps;
      Alcotest.(check int) (name ^ " summary gc") r.M.gc_runs s.Tel.gc_runs;
      Alcotest.(check int) (name ^ " summary peak") (M.peak_space r) s.Tel.peak_space)
    M.all_variants

(* Two runs of the same deterministic program produce identical
   summaries, field for field. *)
let test_deterministic () =
  List.iter
    (fun variant ->
      let _, tl1 = run ~variant count_25 in
      let _, tl2 = run ~variant count_25 in
      if Tel.summary tl1 <> Tel.summary tl2 then
        Alcotest.failf "%s: summaries differ between identical runs"
          (M.variant_name variant))
    M.all_variants

(* Exact counts on small fixed programs (I_tail). Step counts are the
   machine's actual transition counts; allocation counts classify the
   *cell contents* installed by [Store.alloc] — a 3-list is 6 cells:
   three ints (the cars), two pairs (the inner cdrs), one nil. *)
let test_exact_counts () =
  let steps src = Tel.steps (snd (run src)) in
  Alcotest.(check int) "'done steps" 2 (steps "'done");
  Alcotest.(check int) "(+ 1 2) steps" 9 (steps "(+ 1 2)");
  Alcotest.(check int) "apply steps" 14
    (steps "((lambda (f) (f 1)) (lambda (x) x))");
  let _, tl = run "(list 1 2 3)" in
  Alcotest.(check int) "list ints" 3 (Tel.alloc_count tl Tel.K_int);
  Alcotest.(check int) "list pairs" 2 (Tel.alloc_count tl Tel.K_pair);
  Alcotest.(check int) "list nil" 1 (Tel.alloc_count tl Tel.K_atom);
  Alcotest.(check int) "list vectors" 0 (Tel.alloc_count tl Tel.K_vector);
  let _, tl = run "((lambda (f) (f 1)) (lambda (x) x))" in
  Alcotest.(check int) "bound closure" 1 (Tel.alloc_count tl Tel.K_closure);
  Alcotest.(check int) "bound int" 1 (Tel.alloc_count tl Tel.K_int)

(* Continuation depth: the improper machine's depth grows with the
   recursion, the proper one's stays flat. *)
let test_cont_depth () =
  let deep = "(define (count n) (if (zero? n) 'ok (count (- n 1)))) (count 40)" in
  let _, tail_tl = run ~variant:M.Tail deep in
  let _, gc_tl = run ~variant:M.Gc deep in
  if Tel.max_cont_depth tail_tl >= 10 then
    Alcotest.failf "tail machine depth grew: %d" (Tel.max_cont_depth tail_tl);
  if Tel.max_cont_depth gc_tl < 40 then
    Alcotest.failf "gc machine depth did not grow: %d"
      (Tel.max_cont_depth gc_tl);
  let s = Tel.summary gc_tl in
  Alcotest.(check int) "pushes = pops" s.Tel.cont_pushes s.Tel.cont_pops

(* The ring buffer holds the last K configurations when an I_stack run
   under the Algol policy hits a dangling pointer. *)
let test_ring_on_stuck () =
  let r, tl =
    run ~variant:M.Stack ~stack_policy:M.Algol ~ring:8
      "(define (make n) (lambda () n)) ((make 5))"
  in
  (match r.M.outcome with
  | M.Stuck m ->
      if not (String.length m > 0) then Alcotest.fail "empty stuck message"
  | _ -> Alcotest.fail "expected a stuck outcome");
  let trace = Tel.ring_contents tl in
  let len = List.length trace in
  if len = 0 || len > 8 then Alcotest.failf "ring length %d not in 1..8" len;
  let rec increasing = function
    | (s1, _) :: ((s2, _) :: _ as rest) -> s1 < s2 && increasing rest
    | _ -> true
  in
  if not (increasing trace) then Alcotest.fail "ring steps not increasing";
  (* the last entry is the configuration no rule applied to; the step
     counter was not advanced past it *)
  let last_step = fst (List.nth trace (len - 1)) in
  Alcotest.(check int) "ring ends at the stuck step" r.M.steps last_step;
  match (Tel.summary tl).Tel.stuck with
  | Some _ -> ()
  | None -> Alcotest.fail "summary did not record the stuck message"

(* The emitted summary JSON parses and re-prints as the same text. *)
let test_summary_roundtrip () =
  let check_roundtrip name tl =
    let text = Tel.Json.to_string (Tel.summary_to_json (Tel.summary tl)) in
    match Tel.Json.of_string text with
    | Error m -> Alcotest.failf "%s: emitted JSON does not parse: %s" name m
    | Ok j ->
        Alcotest.(check string) (name ^ ": re-printed") text
          (Tel.Json.to_string j)
  in
  check_roundtrip "done run" (snd (run count_25));
  check_roundtrip "stuck run"
    (snd
       (run ~variant:M.Stack ~stack_policy:M.Algol ~ring:4
          "(define (make n) (lambda () n)) ((make 5))"))

let test_json_parser () =
  let ok text expected =
    match Tel.Json.of_string text with
    | Ok j -> Alcotest.(check string) text expected (Tel.Json.to_string j)
    | Error m -> Alcotest.failf "%S did not parse: %s" text m
  in
  ok {|{"a": [1, -2.5, true, null, "x\ny"]}|}
    {|{"a":[1,-2.5,true,null,"x\ny"]}|};
  ok {| [ ] |} {|[]|};
  ok {|"\u0041\u00e9"|} "\"A\xc3\xa9\"";
  match Tel.Json.of_string {|{"a":1,}|} with
  | Ok _ -> Alcotest.fail "trailing comma accepted"
  | Error _ -> ()

(* The event stream sees every transition: one [Step] event per step,
   numbered from 0, whose largest space is exactly the reported peak
   (under [`Exact] every observed configuration fits under the peak,
   and every peak increase is observed). The [config_sink] receives
   exactly the descriptions the ring records. *)
let test_sinks () =
  let events = ref [] in
  let sink = function
    | Tel.Step { step; space; _ } -> events := (step, space) :: !events
    | _ -> ()
  in
  let r, _ = run ~sink count_25 in
  let events = List.rev !events in
  Alcotest.(check (list int))
    "one Step per step" (List.init r.M.steps Fun.id) (List.map fst events);
  Alcotest.(check int)
    "Step spaces reach the peak" (M.peak_space r)
    (List.fold_left (fun m (_, space) -> Stdlib.max m space) 0 events);
  let traced = ref [] in
  let t =
    M.create_with (M.Config.make ~variant:M.Stack ~stack_policy:M.Algol ())
  in
  let tl =
    Tel.create ~ring:1000
      ~config_sink:(fun step d -> traced := (step, d) :: !traced)
      ()
  in
  let _ =
    M.exec_string ~opts:(M.Run_opts.make ~telemetry:tl ()) t
      "(define (make n) (lambda () n)) ((make 5))"
  in
  Alcotest.(check (list (pair int string)))
    "config_sink sees the ring descriptions" (Tel.ring_contents tl)
    (List.rev !traced)

(* The profile recorder downsamples by doubling its stride once the
   sample buffer fills, so memory stays bounded. *)
let test_profile_downsampling () =
  let p = Tel.Profile.create ~stride:1 ~max_samples:8 () in
  for i = 0 to 99 do
    Tel.Profile.sample p ~step:i ~space:(1000 + i)
  done;
  let samples = Tel.Profile.samples p in
  let n = List.length samples in
  if n = 0 || n > 8 then Alcotest.failf "%d samples, wanted 1..8" n;
  if Tel.Profile.stride p <= 1 then Alcotest.fail "stride did not grow";
  List.iter
    (fun (step, space) ->
      Alcotest.(check int) "space tracks step" (1000 + step) space)
    samples;
  let csv = Tel.Profile.to_csv p in
  if not (String.length csv > 10 && String.sub csv 0 11 = "step,space\n") then
    Alcotest.failf "bad csv header: %s" csv

let expand src = Expand.program_of_string src

(* The SECD machine reports the same counters through telemetry. *)
let test_secd_telemetry () =
  let tl = Tel.create () in
  let r = Secd.run ~telemetry:tl (expand count_25) in
  (match r.Secd.outcome with
  | Secd.Done a -> Alcotest.(check string) "secd answer" "ok" a
  | _ -> Alcotest.fail "secd: expected Done");
  Alcotest.(check int) "secd steps" r.Secd.steps (Tel.steps tl);
  Alcotest.(check int) "secd peak" r.Secd.peak_words (Tel.peak_space tl)

(* The denotational evaluator counts allocations through the shared
   store observer. *)
let test_denotational_telemetry () =
  let tl = Tel.create () in
  (match Den.eval ~telemetry:tl (expand "(list 1 2 3)") with
  | Den.Done a -> Alcotest.(check string) "den answer" "(1 2 3)" a
  | Den.Error m -> Alcotest.failf "den error: %s" m
  | Den.Aborted r ->
      Alcotest.failf "den aborted: %s"
        (Tailspace_resilience.Resilience.abort_reason_message r));
  Alcotest.(check int) "den pairs" 2 (Tel.alloc_count tl Tel.K_pair);
  Alcotest.(check int) "den ints" 3 (Tel.alloc_count tl Tel.K_int);
  if Tel.steps tl = 0 then Alcotest.fail "den spent no budget"

(* The harness surfaces gc_runs/peak_space always and the full summary
   on demand; the table renders the new columns. *)
let test_harness_telemetry () =
  let program = expand "(lambda (n) n)" in
  let config = M.Config.make ~variant:M.Tail () in
  let m = R.run_once ~config ~program ~n:7 () in
  Alcotest.(check bool) "summary off by default" true (m.R.summary = None);
  let m = R.run_once ~collect_telemetry:true ~config ~program ~n:7 () in
  (match m.R.summary with
  | None -> Alcotest.fail "collect_telemetry did not produce a summary"
  | Some s ->
      Alcotest.(check int) "harness steps" m.R.steps s.Tel.steps;
      Alcotest.(check int) "harness gc" m.R.gc_runs s.Tel.gc_runs;
      Alcotest.(check int) "harness peak" (R.peak_space m) s.Tel.peak_space);
  let table = Table.measurements [ m ] in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and hl = String.length table in
        let rec go i =
          i + nl <= hl && (String.sub table i nl = needle || go (i + 1))
        in
        go 0
      in
      if not found then Alcotest.failf "table missing %S:\n%s" needle table)
    [ "gc-runs"; "peak"; "S=|P|+peak" ]

let () =
  Alcotest.run "telemetry"
    [
      ( "machines",
        [
          Alcotest.test_case "counters match result" `Quick
            test_counters_match_result;
          Alcotest.test_case "deterministic summaries" `Quick test_deterministic;
          Alcotest.test_case "exact counts" `Quick test_exact_counts;
          Alcotest.test_case "continuation depth" `Quick test_cont_depth;
          Alcotest.test_case "ring buffer on stuck" `Quick test_ring_on_stuck;
        ] );
      ( "json",
        [
          Alcotest.test_case "summary round-trip" `Quick test_summary_roundtrip;
          Alcotest.test_case "parser" `Quick test_json_parser;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "step stream and config sink" `Quick test_sinks;
          Alcotest.test_case "profile downsampling" `Quick
            test_profile_downsampling;
          Alcotest.test_case "secd" `Quick test_secd_telemetry;
          Alcotest.test_case "denotational" `Quick test_denotational_telemetry;
          Alcotest.test_case "harness" `Quick test_harness_telemetry;
        ] );
    ]
