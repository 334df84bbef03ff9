(* Fuel, the one run bound, and the forced-collection fault plans:
   every engine must end a run that reaches its fuel with the same
   structured outcome — never an escaped exception, never an unbounded
   loop — and adversarial GC schedules must change neither answers nor
   [`Exact] peaks. *)

module M = Tailspace_core.Machine
module E = Tailspace_expander.Expand
module R = Tailspace_harness.Runner
module Oracle = Tailspace_harness.Oracle
module Corpus = Tailspace_corpus.Corpus
module Res = Tailspace_resilience.Resilience
module S = Tailspace_engines.Secd
module D = Tailspace_engines.Denotational
module Vm = Tailspace_vm.Vm
module Tel = Tailspace_telemetry.Telemetry

let spin = E.program_of_string "(define (spin n) (spin n)) spin"

let build =
  "(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) build"

let countdown = "(define (count n) (if (zero? n) 0 (count (- n 1)))) count"

(* --- fuel stops every engine the same way --- *)

(* A spinning loop under 100 steps of fuel: each engine stops at its
   100th step with the limit in its abort. The denotational evaluator
   has no steps of its own; its telemetry counts the continuation
   invocations the fuel bounds. *)
let test_fuel_every_engine () =
  let fuel = 100 and input = R.input_expr 1 in
  let check engine ~limit ~steps =
    Alcotest.(check int) (engine ^ ": abort carries the limit") fuel limit;
    Alcotest.(check int) (engine ^ ": stopped at the limit") fuel steps
  in
  let opts = M.Run_opts.make ~fuel () in
  (match
     M.exec_program ~opts (M.create_with M.Config.default) ~program:spin
       ~input
   with
  | { M.outcome = M.Aborted { reason = Res.Out_of_fuel { limit }; _ }; steps; _ }
    ->
      check "stepper" ~limit ~steps
  | _ -> Alcotest.fail "stepper: expected Aborted (Out_of_fuel)");
  List.iter
    (fun proper_tail_calls ->
      match S.run_program ~fuel ~proper_tail_calls ~program:spin ~input () with
      | { S.outcome = S.Aborted (Res.Out_of_fuel { limit }); steps; _ } ->
          check "secd" ~limit ~steps
      | _ -> Alcotest.fail "secd: expected Aborted (Out_of_fuel)")
    [ true; false ];
  (let telemetry = Tel.create () in
   match D.eval_program ~fuel ~telemetry ~program:spin ~input () with
   | D.Aborted (Res.Out_of_fuel { limit }) ->
       check "denotational" ~limit ~steps:(Tel.summary telemetry).Tel.steps
   | _ -> Alcotest.fail "denotational: expected Aborted (Out_of_fuel)");
  match
    Vm.exec_program ~opts (M.Config.make ~engine:M.Vm_fast ()) ~program:spin
      ~input
  with
  | { Vm.outcome = Vm.Aborted (Res.Out_of_fuel { limit }); steps; _ } ->
      check "vm-fast" ~limit ~steps
  | _ -> Alcotest.fail "vm-fast: expected Aborted (Out_of_fuel)"

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
    "render mentions OK" true
    (String.length (Oracle.render report) > 0)

(* --- property: tiny fuel and hostile schedules never escape --- *)

let fast_entries =
  List.filter (fun (e : Corpus.entry) -> not e.Corpus.slow) Corpus.all

let prop_budgets_never_escape =
  QCheck.Test.make ~name:"corpus under tiny budgets yields structured outcomes"
    ~count:120
    QCheck.(
      quad (int_bound (List.length fast_entries - 1)) (int_bound 5)
        (int_bound 400) bool)
    (fun (ei, vi, fuel, seeded) ->
      let entry = List.nth fast_entries ei in
      let variant = List.nth M.all_variants vi in
      let n =
        match entry.Corpus.checks with (n, _) :: _ -> n | [] -> 3
      in
      let fault =
        if seeded then Res.Fault.make ~gc_seed:fuel ()
        else Res.Fault.make ~gc_every:(1 + (fuel mod 7)) ()
      in
      match
        R.run_once
          ~opts:(M.Run_opts.make ~fuel:(1 + fuel) ~fault ())
          ~config:(M.Config.make ~variant ())
          ~program:(Corpus.program entry) ~n ()
      with
      | (_ : R.measurement) -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s/%s escaped: %s" entry.Corpus.name
            (M.variant_name variant) (Printexc.to_string e))

(* --- the abort's tag, message and JSON --- *)

let test_reason_codec () =
  let r = Res.Out_of_fuel { limit = 7 } in
  Alcotest.(check string) "tag" "out-of-fuel" (Res.abort_reason_name r);
  Alcotest.(check string)
    "message" "out of fuel (limit 7 steps)"
    (Res.abort_reason_message r);
  Alcotest.(check string)
    "json" {|{"reason":"out-of-fuel","limit":7}|}
    (Tel.Json.to_string (Res.abort_reason_to_json r))

let () =
  Alcotest.run "resilience"
    [
      ( "governor",
        [ Alcotest.test_case "fuel budget" `Quick test_fuel_every_engine ] );
      ( "faults",
        [
          Alcotest.test_case "forced gc invariance" `Quick
            test_forced_gc_invariance;
          Alcotest.test_case "oracle (small)" `Quick test_oracle_small;
        ] );
      ( "taxonomy",
        [ Alcotest.test_case "reason codec" `Quick test_reason_codec ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_budgets_never_escape ] );
    ]
