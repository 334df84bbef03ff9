(* The resource governor, fault injection, and the sweep supervisor:
   every way a run can end must be a structured outcome — never an
   escaped exception, never an unbounded loop — and adversarial GC
   schedules must change neither answers nor [`Exact] peaks. *)

module M = Tailspace_core.Machine
module E = Tailspace_expander.Expand
module R = Tailspace_harness.Runner
module Table = Tailspace_harness.Table
module Oracle = Tailspace_harness.Oracle
module Corpus = Tailspace_corpus.Corpus
module Res = Tailspace_resilience.Resilience

let spin = "(define (spin n) (spin n)) spin"

let build =
  "(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) build"

let countdown = "(define (count n) (if (zero? n) 0 (count (- n 1)))) count"

let run ?budget ?fault ?(src = spin) ?(n = 1) ?(variant = M.Tail) () =
  let t = M.create_with (M.Config.make ~variant ()) in
  M.exec_program
    ~opts:(M.Run_opts.make ?budget ?fault ())
    t
    ~program:(E.program_of_string src)
    ~input:(R.input_expr n)

let abort_reason (r : M.result) =
  match r.M.outcome with
  | M.Aborted { reason; _ } -> Some reason
  | _ -> None

(* --- each budget limit produces its own abort reason --- *)

let test_fuel_budget () =
  let budget = Res.Budget.make ~fuel:50 () in
  match abort_reason (run ~budget ()) with
  | Some (Res.Out_of_fuel { limit }) ->
      Alcotest.(check int) "limit" 50 limit
  | _ -> Alcotest.fail "expected Out_of_fuel"

let test_space_budget () =
  let budget = Res.Budget.make ~space_words:4000 () in
  match abort_reason (run ~budget ~src:build ~n:100_000 ()) with
  | Some (Res.Space_exceeded { budget = b; live }) ->
      Alcotest.(check int) "budget echoed" 4000 b;
      Alcotest.(check bool) "live above budget" true (live > b)
  | _ -> Alcotest.fail "expected Space_exceeded"

let test_deadline () =
  (* a zero timeout must abort deterministically on the first check *)
  let budget = Res.Budget.make ~timeout_s:0. () in
  match abort_reason (run ~budget ()) with
  | Some (Res.Deadline_exceeded _) -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded"

let test_output_cap () =
  let budget = Res.Budget.make ~output_bytes:3 () in
  let src = "(define (f n) (begin (display \"hello world\") (f n))) f" in
  match abort_reason (run ~budget ~src ()) with
  | Some (Res.Output_exceeded { cap; written }) ->
      Alcotest.(check int) "cap" 3 cap;
      Alcotest.(check bool) "wrote past the cap" true (written > cap)
  | _ -> Alcotest.fail "expected Output_exceeded"

let test_fail_alloc () =
  let fault = Res.Fault.make ~fail_alloc:5 () in
  match abort_reason (run ~fault ~src:build ~n:1000 ()) with
  | Some (Res.Injected_fault _) -> ()
  | _ -> Alcotest.fail "expected Injected_fault"

let test_fuel_drop () =
  let fault = Res.Fault.make ~fuel_drop:(10, 5) () in
  match run ~fault () with
  | { M.outcome = M.Aborted { reason = Res.Out_of_fuel { limit }; _ }; steps; _ } ->
      Alcotest.(check int) "capped at drop step + remaining" 15 limit;
      Alcotest.(check int) "stopped there" 15 steps
  | _ -> Alcotest.fail "expected Out_of_fuel at the dropped limit"

(* --- forced collections are invisible to answers and [`Exact] peaks --- *)

let test_forced_gc_invariance () =
  let program = E.program_of_string build in
  List.iter
    (fun variant ->
      let config = M.Config.make ~variant () in
      let base = R.run_once ~config ~program ~n:50 () in
      List.iter
        (fun fault ->
          let m =
            R.run_once ~opts:(M.Run_opts.make ~fault ()) ~config ~program
              ~n:50 ()
          in
          (match (base.R.status, m.R.status) with
          | R.Answer a, R.Answer b ->
              Alcotest.(check string)
                (M.variant_name variant ^ " answer under forced gc") a b
          | _ -> Alcotest.fail "both runs should answer");
          Alcotest.(check int)
            (M.variant_name variant ^ " exact peak under forced gc")
            (R.peak_space base) (R.peak_space m))
        [
          Res.Fault.make ~gc_every:1 ();
          Res.Fault.make ~gc_every:7 ();
          Res.Fault.make ~gc_seed:3 ();
        ])
    M.all_variants

let test_oracle_small () =
  let programs =
    [
      ("build", E.program_of_string build, 30);
      ("countdown", E.program_of_string countdown, 40);
    ]
  in
  let report = Oracle.run ~programs () in
  Alcotest.(check bool) "oracle ok" true report.Oracle.ok;
  Alcotest.(check bool)
    "algol dangling reachable" true report.Oracle.algol_stuck_on_demand;
  Alcotest.(check bool)
    "annotation invariance holds" true report.Oracle.annot_invariant;
  Alcotest.(check (list string))
    "no annotation mismatches" [] report.Oracle.annot_failures;
  Alcotest.(check bool)
    "render mentions OK" true
    (String.length (Oracle.render report) > 0)

(* --- property: tiny budgets and hostile faults never escape --- *)

let fast_entries =
  List.filter (fun (e : Corpus.entry) -> not e.Corpus.slow) Corpus.all

let prop_budgets_never_escape =
  QCheck.Test.make ~name:"corpus under tiny budgets yields structured outcomes"
    ~count:120
    QCheck.(
      quad (int_bound (List.length fast_entries - 1)) (int_bound 5)
        (int_bound 400) (int_bound 3))
    (fun (ei, vi, fuel, plan_idx) ->
      let entry = List.nth fast_entries ei in
      let variant = List.nth M.all_variants vi in
      let n =
        match entry.Corpus.checks with (n, _) :: _ -> n | [] -> 3
      in
      let budget =
        Res.Budget.make ~fuel:(1 + fuel) ~space_words:(50 + fuel)
          ~output_bytes:8 ()
      in
      let fault =
        match plan_idx with
        | 0 -> Res.Fault.none
        | 1 -> Res.Fault.make ~gc_seed:fuel ()
        | 2 -> Res.Fault.make ~fail_alloc:(1 + (fuel mod 20)) ()
        | _ -> Res.Fault.make ~fuel_drop:(fuel, 3) ()
      in
      match
        R.run_once
          ~opts:(M.Run_opts.make ~budget ~fault ())
          ~config:(M.Config.make ~variant ())
          ~program:(Corpus.program entry) ~n ()
      with
      | (_ : R.measurement) -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s/%s escaped: %s" entry.Corpus.name
            (M.variant_name variant) (Printexc.to_string e))

(* --- the sweep supervisor --- *)

let test_supervisor_partial_table () =
  (* diverges for n >= 10: the supervisor must return a full table with
     a per-point abort reason, not die *)
  let src = "(define (f n) (if (< n 10) n (f n))) f" in
  let s =
    R.sweep_supervised ~initial_fuel:2_000 ~max_attempts:2 ~fuel_cap:10_000
      ~config:(M.Config.make ~variant:M.Tail ())
      ~program:(E.program_of_string src)
      ~ns:[ 1; 2; 99 ] ()
  in
  Alcotest.(check int) "all points present" 3 (List.length s.R.points);
  Alcotest.(check int) "two answered" 2 s.R.answered;
  Alcotest.(check int) "one degraded" 1 s.R.degraded;
  let bad = List.nth s.R.points 2 in
  (match bad.R.measurement.R.status with
  | R.Aborted (Res.Out_of_fuel _) -> ()
  | _ -> Alcotest.fail "diverging point should be out of fuel");
  Alcotest.(check bool) "degradation note present" true (bad.R.note <> None);
  (* the table renderer accepts the partial result *)
  let table = Table.supervised s in
  Alcotest.(check bool) "table renders" true (String.length table > 0)

let test_supervisor_escalation () =
  (* needs more steps than the first attempt's fuel; escalation finds it *)
  let s =
    R.sweep_supervised ~initial_fuel:100 ~max_attempts:6
      ~config:(M.Config.make ~variant:M.Tail ())
      ~program:(E.program_of_string countdown)
      ~ns:[ 500 ] ()
  in
  match s.R.points with
  | [ p ] ->
      (match p.R.measurement.R.status with
      | R.Answer a -> Alcotest.(check string) "answer" "0" a
      | _ -> Alcotest.fail "escalation should reach an answer");
      Alcotest.(check bool) "took more than one attempt" true (p.R.attempts > 1);
      Alcotest.(check bool) "note says so" true (p.R.note <> None)
  | _ -> Alcotest.fail "one point expected"

(* --- taxonomy codecs --- *)

let test_reason_codec () =
  List.iter
    (fun r ->
      let name = Res.abort_reason_name r in
      match Res.abort_reason_of_name name with
      | Some r' ->
          Alcotest.(check string)
            ("round trip " ^ name) name
            (Res.abort_reason_name r')
      | None -> Alcotest.failf "tag %s did not parse" name)
    [
      Res.Out_of_fuel { limit = 1 };
      Res.Space_exceeded { budget = 1; live = 2 };
      Res.Deadline_exceeded { timeout_s = 0.1 };
      Res.Output_exceeded { cap = 1; written = 2 };
      Res.Injected_fault "x";
      Res.Crashed "y";
    ]

(* --- the injectable clock --- *)

(* A Guard deadline must fire from the fake clock alone: no sleeping,
   and advancing the fake past the deadline is sufficient and
   necessary. *)
let test_fake_clock_deadline () =
  let t = ref 1000. in
  Res.Clock.with_source
    (fun () -> !t)
    (fun () ->
      let guard = Res.Guard.start (Res.Budget.make ~timeout_s:5. ()) in
      Alcotest.(check bool)
        "no abort before the deadline" true
        (Res.Guard.check guard ~steps:1 ~output_bytes:0 = None);
      (* stay just under; the check throttle reads the clock every 256
         calls, so drive well past that *)
      t := 1004.9;
      for i = 2 to 600 do
        match Res.Guard.check guard ~steps:i ~output_bytes:0 with
        | None -> ()
        | Some r ->
            Alcotest.failf "premature abort: %s" (Res.abort_reason_name r)
      done;
      t := 1005.1;
      let fired = ref None in
      (try
         for i = 601 to 1200 do
           match Res.Guard.check guard ~steps:i ~output_bytes:0 with
           | Some r ->
               fired := Some r;
               raise Exit
           | None -> ()
         done
       with Exit -> ());
      match !fired with
      | Some (Res.Deadline_exceeded _) -> ()
      | Some r -> Alcotest.failf "wrong reason: %s" (Res.abort_reason_name r)
      | None -> Alcotest.fail "deadline never fired on the fake clock");
  Alcotest.(check bool)
    "with_source restored the real clock" true
    (Res.Clock.now () > 1_000_000.)

let () =
  Alcotest.run "resilience"
    [
      ( "governor",
        [
          Alcotest.test_case "fuel budget" `Quick test_fuel_budget;
          Alcotest.test_case "space budget" `Quick test_space_budget;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "output cap" `Quick test_output_cap;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fail alloc" `Quick test_fail_alloc;
          Alcotest.test_case "fuel drop" `Quick test_fuel_drop;
          Alcotest.test_case "forced gc invariance" `Quick
            test_forced_gc_invariance;
          Alcotest.test_case "oracle (small)" `Quick test_oracle_small;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "partial table" `Quick
            test_supervisor_partial_table;
          Alcotest.test_case "fuel escalation" `Quick
            test_supervisor_escalation;
        ] );
      ( "taxonomy",
        [ Alcotest.test_case "reason codec" `Quick test_reason_codec ] );
      ( "clock",
        [
          Alcotest.test_case "fake-clock deadline" `Quick
            test_fake_clock_deadline;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_budgets_never_escape ] );
    ]
