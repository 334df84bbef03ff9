(* The benchmark executable does two jobs:

   1. Reproduce the paper: print every experiment table (E1-E7, mapped
      to the paper's figures and theorems in DESIGN.md). These are
      *space* measurements — the paper's claims are about asymptotic
      space, so this report is the real artifact.

   2. Wall-clock benchmarks (Bechamel): one [Test.make] per experiment
      table, timing a representative slice of each, plus a throughput
      comparison of the six machine variants. The paper makes no timing
      claims; this section is an engineering sanity check that the
      reference machines are usable. *)

open Bechamel
open Toolkit
module M = Tailspace_core.Machine
module X = Tailspace_harness.Experiments
module R = Tailspace_harness.Runner
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families
module Expand = Tailspace_expander.Expand

(* ------------------------------------------------------------------ *)
(* Timing benches                                                      *)

let stage_run_with config program n =
  (* machine creation is hoisted out of the timed closure *)
  let t = M.create_with config in
  Staged.stage (fun () ->
      ignore (M.exec_program t ~program ~input:(R.input_expr n)))

let stage_run ~variant program n =
  stage_run_with (M.Config.make ~variant ()) program n

let variant_benches =
  let program = Corpus.program (Option.get (Corpus.find "fib-naive")) in
  List.map
    (fun variant ->
      Test.make
        ~name:(M.variant_name variant)
        (stage_run ~variant program 10))
    M.all_variants

let experiment_benches =
  let sep = Expand.program_of_string Families.separator_stack_gc in
  let pk = Expand.program_of_string (Families.pk_program 8) in
  let right = Expand.program_of_string Families.find_leftmost_right_traverse in
  let cps = Expand.program_of_string Families.cps_loop in
  let countdown = Corpus.program (Option.get (Corpus.find "countdown")) in
  [
    Test.make ~name:"fig2.analyze-corpus"
      (Staged.stage (fun () -> ignore (X.Fig2.run ())));
    Test.make ~name:"thm25.separator-stack"
      (stage_run ~variant:M.Stack sep 12);
    Test.make ~name:"thm24.chain-countdown"
      (let machines =
         List.map
           (fun v -> M.create_with (M.Config.make ~variant:v ()))
           M.all_variants
       in
       Staged.stage (fun () ->
           List.iter
             (fun t ->
               ignore
                 (M.exec_program t ~program:countdown ~input:(R.input_expr 20)))
             machines));
    Test.make ~name:"thm26.pk-linked"
      (let t = M.create_with (M.Config.make ~variant:M.Tail ()) in
       let opts =
         M.Run_opts.make
           ~measure:[ Tailspace_core.Space_model.Flat; Tailspace_core.Space_model.Linked ]
           ()
       in
       Staged.stage (fun () ->
           ignore
             (M.exec_program ~opts t ~program:pk ~input:(R.input_expr 8))));
    Test.make ~name:"sec4.find-leftmost"
      (stage_run ~variant:M.Tail right 32);
    Test.make ~name:"cor20.all-variants"
      (let machines =
         List.map
           (fun v -> M.create_with (M.Config.make ~variant:v ()))
           M.all_variants
       in
       let program = Corpus.program (Option.get (Corpus.find "even-odd")) in
       Staged.stage (fun () ->
           List.iter
             (fun t ->
               ignore (M.exec_program t ~program ~input:(R.input_expr 30)))
             machines));
    Test.make ~name:"cps.tail" (stage_run ~variant:M.Tail cps 64);
    Test.make ~name:"ablation.literal-gc"
      (let t =
         M.create_with
           (M.Config.make ~variant:M.Gc ~return_env:M.Register_env ())
       in
       Staged.stage (fun () ->
           ignore (M.exec_program t ~program:sep ~input:(R.input_expr 12))));
    Test.make ~name:"sanity.secd"
      (let program = Corpus.program (Option.get (Corpus.find "countdown")) in
       Staged.stage (fun () ->
           ignore
             (Tailspace_engines.Secd.run_program ~program
                ~input:(R.input_expr 64) ())));
  ]

(* Telemetry overhead: the same run bare, with counters only, and with
   a full event sink + profile — the disabled case must stay within
   noise of the seed (the hot path is one is-None branch per step). *)
let telemetry_benches =
  let module Tel = Tailspace_telemetry.Telemetry in
  let program = Corpus.program (Option.get (Corpus.find "countdown")) in
  let t = M.create_with (M.Config.make ~variant:M.Tail ()) in
  let input = R.input_expr 500 in
  [
    Test.make ~name:"off"
      (Staged.stage (fun () -> ignore (M.exec_program t ~program ~input)));
    Test.make ~name:"counters"
      (Staged.stage (fun () ->
           let opts = M.Run_opts.make ~telemetry:(Tel.create ()) () in
           ignore (M.exec_program ~opts t ~program ~input)));
    Test.make ~name:"events+profile"
      (Staged.stage (fun () ->
           let tl =
             Tel.create
               ~sink:(fun _ -> ())
               ~profile:(Tel.Profile.create ~stride:16 ())
               ()
           in
           let opts = M.Run_opts.make ~telemetry:tl () in
           ignore (M.exec_program ~opts t ~program ~input)));
  ]

(* The annotation pass exists to make the I_sfs/I_free restriction sets
   a table lookup instead of a per-push free-variable traversal; this
   group times the same run with the pass on and off, on the variants
   that consult the sets every push. The paired names make the speedup
   visible in the report. *)
let annot_benches =
  let sfs_heavy = Expand.program_of_string Families.separator_evlis_sfs in
  (* a many-argument iteration: every call pushes arity-many frames, so
     the per-push suffix unions the pass precomputes dominate the
     unannotated step loop *)
  let manyarg =
    Expand.program_of_string
      {|
(define (f a b c d e g h) (if (zero? a) 0 (f (- a 1) b c d e g h)))
(lambda (n) (f n 1 2 3 4 5 6))
|}
  in
  List.concat_map
    (fun (vname, variant) ->
      [
        Test.make
          ~name:(vname ^ ".separator.annot")
          (stage_run_with (M.Config.make ~variant ()) sfs_heavy 48);
        Test.make
          ~name:(vname ^ ".separator.no-annot")
          (stage_run_with
             (M.Config.make ~variant ~annotate:false ())
             sfs_heavy 48);
        Test.make
          ~name:(vname ^ ".manyarg.annot")
          (stage_run_with (M.Config.make ~variant ()) manyarg 2000);
        Test.make
          ~name:(vname ^ ".manyarg.no-annot")
          (stage_run_with
             (M.Config.make ~variant ~annotate:false ())
             manyarg 2000);
      ])
    [ ("sfs", M.Sfs); ("free", M.Free) ]

(* The execution tiers head-to-head on the same (program, input): the
   Tail stepper, the fast VM end-to-end (compile + prelude + run), the
   fast VM with compilation hoisted out (the pure dispatch-loop cost),
   and the SECD engine for reference. *)
let vm_benches =
  let module Vm = Tailspace_vm.Vm in
  let module Ast = Tailspace_ast.Ast in
  let entry name = Corpus.program (Option.get (Corpus.find name)) in
  let tiers name program n =
    [
      Test.make ~name:(name ^ ".stepper")
        (stage_run ~variant:M.Tail program n);
      Test.make ~name:(name ^ ".vm-fast")
        (let config = M.Config.make ~engine:M.Vm_fast () in
         Staged.stage (fun () ->
             ignore (Vm.exec_program config ~program ~input:(R.input_expr n))));
      Test.make
        ~name:(name ^ ".vm-fast-precompiled")
        (let compiled = Vm.compile (Ast.Call (program, [ R.input_expr n ])) in
         Staged.stage (fun () -> ignore (Vm.run_fast compiled)));
      Test.make ~name:(name ^ ".secd")
        (Staged.stage (fun () ->
             ignore
               (Tailspace_engines.Secd.run_program ~program
                  ~input:(R.input_expr n) ())));
    ]
  in
  tiers "countdown" (entry "countdown") 2000
  @ tiers "fib-naive" (entry "fib-naive") 15
  @ tiers "even-odd" (entry "even-odd") 2000

let run_benches () =
  let tests =
    Test.make_grouped ~name:"bench"
      [
        Test.make_grouped ~name:"experiments" experiment_benches;
        Test.make_grouped ~name:"variants" variant_benches;
        Test.make_grouped ~name:"telemetry" telemetry_benches;
        Test.make_grouped ~name:"annot" annot_benches;
        Test.make_grouped ~name:"vm" vm_benches;
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let time_ns =
        match Analyze.OLS.estimates ols with Some [ t ] -> t | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
      rows := (name, time_ns, r2) :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_string
    (Tailspace_harness.Table.section "Wall-clock timings (Bechamel, OLS fit)");
  print_string
    (Tailspace_harness.Table.render
       ~header:[ "bench"; "time/run"; "r^2" ]
       (List.map
          (fun (name, ns, r2) ->
            let time =
              if Float.is_nan ns then "-"
              else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else Printf.sprintf "%.1f us" (ns /. 1e3)
            in
            [ name; time; Printf.sprintf "%.3f" r2 ])
          rows))

(* --jobs N on the command line sets the worker-domain count for the
   experiment tables (default: cores minus one). The tables themselves
   are byte-identical whatever the value; only the timing section below
   is wall-clock sensitive, and it always runs serially. *)
let jobs_from_argv () =
  let rec scan = function
    | "--jobs" :: v :: _ | "-j" :: v :: _ -> int_of_string_opt v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let () =
  print_endline
    "Proper Tail Recursion and Space Efficiency (Clinger, PLDI 1998)";
  print_endline
    "reproduction report: every table below regenerates a paper claim;";
  print_endline "see DESIGN.md for the experiment index and EXPERIMENTS.md";
  print_endline "for the paper-vs-measured record.";
  print_string
    (Tailspace_parallel.Pool.with_pool ?jobs:(jobs_from_argv ()) (fun pool ->
         X.render_all ?pool ()));
  print_newline ();
  run_benches ()
