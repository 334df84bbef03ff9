open Tailspace_benchmark
module Telemetry = Tailspace_telemetry.Telemetry
module Json = Telemetry.Json

let floats n = Array.init n (fun i -> float (i + 1))

(* {1 Percentiles} *)

let test_percentile_refusal () =
  let refused p n =
    match Stats.percentile ~p (floats n) with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "p90 of 99 samples refused" true (refused 90. 99);
  Alcotest.(check bool) "p90 of 100 samples reported" false (refused 90. 100);
  Alcotest.(check bool) "p99 of 999 samples refused" true (refused 99. 999);
  Alcotest.(check bool) "p50 of 19 samples refused" true (refused 50. 19);
  Alcotest.(check (result (float 0.) string))
    "nearest rank" (Ok 90.)
    (Stats.percentile ~p:90. (floats 100));
  Alcotest.(check (result (float 0.) string))
    "p99 of 1000" (Ok 990.)
    (Stats.percentile ~p:99. (floats 1000))

let test_highest_percentile () =
  let check n expected =
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "%d samples" n)
      expected
      (Stats.highest_percentile n)
  in
  check 19 None;
  check 20 (Some 50.);
  check 99 (Some 50.);
  check 100 (Some 90.);
  check 999 (Some 90.);
  check 1000 (Some 99.);
  check 10000 (Some 99.9)

(* statistics.quantiles([1..10], n=4) and statistics.quantiles([1, 2], n=4) *)
let test_quartiles () =
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.to_list (floats 10)));
  Alcotest.check q "1, 2" (0.75, 1.5, 2.25) (Stats.quartiles [ 1.; 2. ])

let test_hist_agrees () =
  let g = Workload.Rng.make 5 in
  let xs =
    Array.init 3000 (fun i ->
        if i mod 97 = 0 then Stats.Hist.limit + Workload.Rng.int g 1000
        else Workload.Rng.int g 5000)
  in
  let h = Stats.Hist.create () in
  Array.iter (Stats.Hist.add h) xs;
  List.iter
    (fun p ->
      let direct =
        match Stats.percentile ~p (Array.map float xs) with
        | Ok v -> Some (int_of_float v)
        | Error _ -> None
      in
      Alcotest.(check (option int))
        (Printf.sprintf "p%g" p) direct
        (Stats.Hist.percentile h ~p))
    [ 50.; 90.; 99. ]

(* {1 Host speed} *)

let test_scales () =
  let n = int_of_float Calib.nominal_ns in
  let factors = Array.to_list (Calib.scales [| n; n; 10 * n; n; 2 * n; 2 * n; 2 * n |]) in
  Alcotest.(check (list (float 1e-12)))
    "one slow slice is outvoted; a lasting slowdown halves the factor"
    [ 1.; 1.; 1.; 0.5; 0.5; 0.5; 0.5 ]
    factors;
  Alcotest.(check bool) "a slice takes time" true (Calib.slice () > 0)

(* {1 Collection attempts} *)

let step step space =
  Telemetry.Step { step; space; cont_depth = 0; store_cells = 0 }

let gc step reason = Telemetry.Gc_run { step; reason; live = 0; freed = 1 }

let feed ~every_step events =
  let plain = Stats.Hist.create () in
  let spans = ref 0 in
  let p = Trace.probe ~every_step plain ~on_collect:(fun _ _ -> incr spans) in
  let t = ref 0 in
  let now () =
    t := !t + 10;
    !t
  in
  Trace.start p 0;
  List.iter (Trace.observe p ~now) events;
  Trace.finish p ~completed:true (!t + 10);
  (p, plain, !spans)

let test_attempts_synthetic () =
  let events =
    [
      step 0 10;
      gc 1 Telemetry.Gc_peak;
      step 1 8;
      step 2 12;
      step 3 12;
      step 4 11;
      step 5 15;
      gc 5 Telemetry.Gc_final;
    ]
  in
  let p, plain, spans = feed ~every_step:false events in
  (* steps 0 (first), 1 (reclaimed), 2 and 5 (new peaks), then the
     final collection; steps 3 and 4 are plain *)
  Alcotest.(check int) "flat attempts" 5 p.Trace.attempts;
  Alcotest.(check int) "plain steps" 2 (Stats.Hist.count plain);
  Alcotest.(check int) "one span per attempt" 5 spans;
  Alcotest.(check int) "collecting time" 50 p.Trace.collect_ns;
  let p, plain, _ = feed ~every_step:true events in
  Alcotest.(check int) "heavy: every step and the final" 7 p.Trace.attempts;
  Alcotest.(check int) "heavy: no plain step" 0 (Stats.Hist.count plain)

let traced_points points = Measure.traced_pass (Measure.prepare points)

let test_attempts_real () =
  let flat =
    Array.map
      (fun (p : Workload.point) -> { p with n = 60 })
      (Workload.tiny Workload.stack_growth)
  in
  let t = traced_points flat in
  Array.iteri
    (fun i (o : Measure.outcome) ->
      let a = t.Measure.attempts.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "flat %d: reclaiming %d <= attempts %d <= steps %d + 1"
           i o.gc_runs a o.steps)
        true
        (o.gc_runs <= a && a <= o.steps + 1 && a < o.steps))
    t.Measure.t_outcomes;
  let t = traced_points (Workload.tiny Workload.heavy_models) in
  Array.iteri
    (fun i (o : Measure.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "heavy %d: attempts = steps + 1" i)
        (o.steps + 1) t.Measure.attempts.(i))
    t.Measure.t_outcomes

(* {1 Seeded generation} *)

let key (p : Workload.point) = (p.label, p.n)

let test_seeded () =
  List.iter
    (fun (w : Workload.t) ->
      let gen seed = Array.to_list (Array.map key (Workload.generate w ~seed)) in
      Alcotest.(check (list (pair string int))) (w.name ^ ": same seed") (gen 1) (gen 1);
      Alcotest.(check bool) (w.name ^ ": seeds differ") false (gen 1 = gen 2);
      Alcotest.(check int)
        (w.name ^ ": rows") Metrics.rows
        (List.length (Workload.rows w)))
    Workload.all;
  Alcotest.(check (list int))
    "points per workload" [ 48; 48; 48; 174 ]
    (List.map
       (fun w -> Array.length (Workload.generate w ~seed:3))
       Workload.all)

let test_expected_current () =
  List.iter
    (fun (w : Workload.t) ->
      match Record.load_expected "../expected" ~workload:w.name with
      | Error m -> Alcotest.fail m
      | Ok recs ->
          Alcotest.(check (list (pair string int)))
            (w.name ^ ": expected outputs match the generated points")
            (Array.to_list
               (Array.map key (Workload.generate w ~seed:Record.default_seed)))
            (List.map (fun (r : Record.t) -> (r.label, r.n)) recs))
    Workload.all

(* {1 Metric names} *)

let spec_metrics key =
  let text =
    In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
  in
  let json = Result.get_ok (Json.of_string text) in
  match Json.member key json with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m, Json.member "better" m) with
          | Some (Json.Str n), Some (Json.Str u), Some (Json.Str b) -> (n, u, b)
          | _ -> Alcotest.fail "malformed metric")
        ms
  | _ -> Alcotest.fail ("no " ^ key)

let declared specs =
  List.map
    (fun (s : Metrics.spec) -> (s.name, s.unit, Metrics.better_name s.better))
    specs

let metric_list = Alcotest.(list (triple string string string))

let test_spec_matches () =
  Alcotest.check metric_list "end_to_end" (spec_metrics "end_to_end")
    (declared Metrics.end_to_end);
  Alcotest.check metric_list "per_layer" (spec_metrics "per_layer")
    (declared Metrics.per_layer);
  match Compare.load_bounds "../../BENCHMARK.json" with
  | Error m -> Alcotest.fail m
  | Ok bounds ->
      Alcotest.(check (list string))
        "a bound for every end-to-end metric"
        (List.map (fun (s : Metrics.spec) -> s.name) Metrics.end_to_end)
        (List.map (fun (b : Compare.bound) -> b.spec.name) bounds)

let printed (r : Measure.report) =
  match Output.result_line r with
  | Json.Obj [ ("correct", _); ("attempted", _); ("failed", _); ("metrics", Json.Obj ms) ]
    ->
      List.map
        (fun (name, m) ->
          match (Json.member "unit" m, Json.member "value" m) with
          | Some (Json.Str u), Some (Json.Float _) -> (name, u)
          | _ -> Alcotest.fail ("malformed metric " ^ name))
        ms
  | _ -> Alcotest.fail "result line must have exactly four keys"

let names_units key =
  List.map (fun (n, u, _) -> (n, u)) (spec_metrics key)

(* {1 Smoke} *)

let smoke (w : Workload.t) =
  let t0 = Stats.now_ns () in
  let r = Measure.run ~points:(Workload.tiny w) ~seconds:0. ~trace:true w ~seed:1 in
  Printf.printf "%s: %.2f s\n" w.name (float (Stats.now_ns () - t0) /. 1e9);
  Alcotest.(check (list string)) (w.name ^ ": no problems") [] r.problems;
  Alcotest.(check bool) (w.name ^ ": correct") true r.correct;
  Alcotest.(check (list (pair string string)))
    (w.name ^ ": every per-layer metric with its unit")
    (names_units "per_layer") (printed r);
  Alcotest.(check (list (pair string string)))
    (w.name ^ ": every end-to-end metric with its unit")
    (names_units "end_to_end")
    (printed { r with per_layer = [] })

let test_smoke () = List.iter smoke Workload.all

(* {1 Compare} *)

let test_judge () =
  let b =
    { Compare.spec = { Metrics.name = "wall_s"; unit = "s"; better = Lower }; bound = 0.1 }
  in
  let base = [ 1.0; 1.01; 0.99; 1.0; 1.0 ] in
  let verdict head = let v, _, _ = Compare.judge b ~base ~head in Compare.verdict_name v in
  Alcotest.(check string) "same" "same" (verdict base);
  Alcotest.(check string) "worse" "worse" (verdict (List.map (( *. ) 1.2) base));
  Alcotest.(check string) "better" "better" (verdict (List.map (( *. ) 0.8) base));
  Alcotest.(check string) "unresolved" "unresolved"
    (verdict [ 0.8; 1.25; 0.85; 1.2; 1.0 ]);
  Alcotest.(check string) "wide spread with a worse median" "unresolved"
    (verdict [ 1.0; 1.6; 1.1; 1.5; 1.3 ])

let () =
  Alcotest.run "benchmark"
    [
      ( "percentiles",
        [
          Alcotest.test_case "refusal" `Quick test_percentile_refusal;
          Alcotest.test_case "highest with ten beyond" `Quick test_highest_percentile;
          Alcotest.test_case "quartiles as python" `Quick test_quartiles;
          Alcotest.test_case "histogram agrees" `Quick test_hist_agrees;
        ] );
      ("host speed", [ Alcotest.test_case "windowed scales" `Quick test_scales ]);
      ( "attempts",
        [
          Alcotest.test_case "synthetic streams" `Quick test_attempts_synthetic;
          Alcotest.test_case "real tiny runs" `Quick test_attempts_real;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "seeded generation" `Quick test_seeded;
          Alcotest.test_case "expected outputs current" `Quick test_expected_current;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_spec_matches;
          Alcotest.test_case "smoke through the measured loop" `Quick test_smoke;
          Alcotest.test_case "compare verdicts" `Quick test_judge;
        ] );
    ]
