(* Harness: growth exponents on synthetic data, table rendering, the
   runner, and smoke runs of the experiment drivers at reduced sizes. *)

module G = Tailspace_harness.Growth
module T = Tailspace_harness.Table
module R = Tailspace_harness.Runner
module X = Tailspace_harness.Experiments
module M = Tailspace_core.Machine
module SM = Tailspace_core.Space_model

let synth f ns = List.map (fun n -> (n, f n)) ns
let ns = [ 8; 16; 32; 64; 128; 256 ]
let exponent f = G.exponent (synth f ns)
let log2 n = int_of_float (Float.log2 (float_of_int n))

(* Exponents of exact series are exact: the increments over a doubling
   of a N^p + c stand in the ratio 2^p. *)
let exact = Alcotest.(option (float 0.))

let test_constant () =
  Alcotest.check exact "constant" (Some 0.) (exponent (fun _ -> 3000));
  Alcotest.check exact "falling top increment" (Some 0.)
    (G.exponent [ (10, 500); (20, 520); (40, 510) ])

let test_logarithmic () =
  Alcotest.check exact "c + k log2 N" (Some 0.)
    (exponent (fun n -> 4400 + (16 * log2 n)))

let test_linear () =
  Alcotest.check exact "a N + c" (Some 1.) (exponent (fun n -> 1000 + (17 * n)))

let test_linearithmic () =
  (* N log N is in the paper's linear class: above 1, but not separated
     from a linear series *)
  let p = exponent (fun n -> 200 + (7 * n * log2 n)) in
  Alcotest.(check bool) "above linear" true (Option.get p > 1.);
  Alcotest.(check bool) "not separated from linear" false
    (G.separates p (Some 1.))

let test_quadratic () =
  Alcotest.check exact "a N^2 + c" (Some 2.)
    (exponent (fun n -> 100 + (3 * n * n)))

let test_constants_cancel () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun c ->
          Alcotest.check exact
            (Printf.sprintf "%s + %d" name c)
            (exponent f)
            (exponent (fun n -> f n + c)))
        [ -1000; 1; 4400; 1_000_000 ])
    [
      ("constant", fun _ -> 7);
      ("log", fun n -> 16 * log2 n);
      ("linear", fun n -> 101 * n);
      ("n log n", fun n -> n * log2 n);
      ("quadratic", fun n -> 3 * n * n);
      ("onset in the top step", fun n -> if n < 256 then 0 else n);
    ]

let test_unresolved () =
  Alcotest.check exact "top not geometric" None
    (G.exponent [ (10, 1); (20, 2); (30, 3) ]);
  Alcotest.check exact "growth starts inside the top step" None
    (G.exponent [ (20, 505); (40, 505); (80, 505); (160, 546) ]);
  Alcotest.check exact "previous increment falls" None
    (G.exponent [ (20, 444); (40, 420); (80, 600) ])

let test_needs_points () =
  List.iter
    (fun points ->
      Alcotest.check exact
        (Printf.sprintf "%d points" (List.length points))
        None (G.exponent points))
    [ []; [ (8, 1) ]; [ (8, 1); (16, 2) ] ]

let test_separates () =
  Alcotest.(check bool) "half a class apart" true
    (G.separates (Some 1.5) (Some 1.));
  Alcotest.(check bool) "just under half" false
    (G.separates (Some 1.49) (Some 1.));
  Alcotest.(check bool) "unresolved x" false (G.separates None (Some 0.));
  Alcotest.(check bool) "unresolved y" false (G.separates (Some 2.) None);
  Alcotest.(check bool) "bounded below half" true (G.bounded (Some 0.49));
  Alcotest.(check bool) "not bounded at half" false (G.bounded (Some 0.5));
  Alcotest.(check bool) "unresolved is not bounded" false (G.bounded None)

let test_table_render () =
  let s = T.render ~header:[ "name"; "n" ] [ [ "alpha"; "12" ]; [ "b"; "3" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  Alcotest.(check string) "numbers right-aligned" "alpha  12" (List.nth lines 2);
  Alcotest.(check string) "short name padded" "b       3" (List.nth lines 3)

let square = "(define (f n) (* n n)) f"

let test_runner_sweep () =
  let ms = R.sweep (R.point square) [ 2; 3; 4 ] in
  Alcotest.(check int) "three runs" 3 (List.length ms);
  Alcotest.(check bool) "all answered" true (R.all_answered ms);
  let answers =
    List.map (fun m -> match m.R.status with R.Answer a -> a | _ -> "?") ms
  in
  Alcotest.(check (list string)) "squares" [ "4"; "9"; "16" ] answers;
  Alcotest.(check int) "figures read" 3
    (List.length (List.filter_map (fun m -> R.answered m SM.Flat) ms))

let test_runner_stuck_excluded () =
  let ms = R.sweep (R.point "(define (f n) (car n)) f") [ 1; 2 ] in
  Alcotest.(check bool) "not all answered" false (R.all_answered ms);
  Alcotest.(check int) "no figure read" 0
    (List.length (List.filter_map (fun m -> R.answered m SM.Flat) ms))

(* The lookup is keyed on source text: a repeated point, or one built
   from an equal copy of its source, reads the same measurement. *)
let test_runner_grid_dedup () =
  let a = R.point square 3 and b = R.point (square ^ "") 3 in
  let lookup = R.measure [ a; a; b; R.point square 4 ] in
  Alcotest.(check bool) "answered" true ((lookup a).R.status = R.Answer "9");
  Alcotest.(check bool) "one measurement for equal points" true
    (lookup a == lookup b);
  Alcotest.check_raises "a point outside the grid" Not_found (fun () ->
      ignore (lookup (R.point square 5)))

(* --- experiment drivers at reduced scale --- *)

let ruling =
  Alcotest.testable
    (fun ppf r -> Format.pp_print_string ppf (X.(match r with Holds -> "holds" | Fails -> "fails" | Unresolved -> "unresolved")))
    ( = )

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_fig2_runs () =
  let rows = X.Fig2.run () in
  Alcotest.(check bool) "covers corpus" true
    (List.length rows = List.length Tailspace_corpus.Corpus.all);
  let total = X.Fig2.total rows in
  Alcotest.(check bool) "nonzero calls" true (total.X.Tail_calls.calls > 0);
  Alcotest.(check bool) "renders" true (String.length (X.Fig2.render rows) > 100)

let test_thm25_reduced () =
  let sweeps = R.run (X.Thm25.grid ~ns:[ 10; 20; 40 ] ()) in
  Alcotest.(check int) "four separators" 4 (List.length sweeps);
  List.iter
    (fun (name, rows) ->
      List.iter
        (fun (s : X.series) ->
          Alcotest.(check bool)
            (name ^ " " ^ String.concat " " s.X.label ^ " all ran")
            true
            (List.for_all (fun (_, f) -> f <> None) s.X.figures
            && List.length s.X.figures = 3))
        rows)
    sweeps;
  Alcotest.(check bool) "renders" true (String.length (X.Thm25.render sweeps) > 200)

let test_thm25_claims_full () =
  (* the paper's separations at full default sizes *)
  let sweeps = R.run (X.Thm25.grid ()) in
  List.iter
    (fun (v : X.verdict) -> Alcotest.check ruling v.X.claim X.Holds v.X.ruling)
    (X.Thm25.claims sweeps)

let test_thm24_chain () =
  let rows = R.run (X.Thm24.grid ()) in
  Alcotest.(check bool) "nonempty" true (List.length rows > 10);
  List.iter
    (fun (r : X.Thm24.row) ->
      Alcotest.check ruling (r.X.Thm24.name ^ " chain") X.Holds r.X.Thm24.chain)
    rows

let figure_at (s : X.series) n = Option.get (List.assoc n s.X.figures)

let test_thm26_shape () =
  let result = R.run (X.Thm26.grid ~ns:[ 6; 9; 14; 20 ] ()) in
  (* flat sfs must overtake linked tail as N grows *)
  let ratio n =
    float_of_int (figure_at result.X.Thm26.s_sfs n)
    /. float_of_int (figure_at result.X.Thm26.u_tail n)
  in
  Alcotest.(check bool) "S_sfs/U_tail grows" true (ratio 20 > ratio 6);
  Alcotest.(check bool) "renders" true (String.length (X.Thm26.render result) > 100)

let test_cor20_agreement () =
  let rows = R.run (X.Cor20.grid ()) in
  List.iter
    (fun (r : X.Cor20.row) ->
      Alcotest.(check bool) (r.X.Cor20.name ^ " agrees") true r.X.Cor20.agree)
    rows

let test_cps_shapes () =
  match R.run (X.Cps.grid ~ns:[ 16; 32; 64; 128 ] ()) with
  | [ tail; gc ] ->
      Alcotest.(check bool) "tail bounded" true (G.bounded tail.X.exponent);
      Alcotest.(check bool) "gc separates from tail" true
        (G.separates gc.X.exponent tail.X.exponent)
  | _ -> Alcotest.fail "E7: expected the tail and gc series"

let test_ablation_choices_matter () =
  (* E8: the faithful readings separate; the literal readings do not *)
  let r = R.run (X.Ablation.grid ()) in
  let check expected (v : X.verdict) =
    Alcotest.check ruling v.X.claim expected v.X.ruling
  in
  List.iter
    (fun verdicts ->
      match verdicts with
      | [ faithful; literal ] ->
          check X.Holds faithful;
          check X.Fails literal
      | _ -> Alcotest.fail "E8: expected a faithful and a literal verdict")
    [ r.X.Ablation.return_env_verdicts; r.X.Ablation.evlis_verdicts ]

let test_sanity_verdicts () =
  (* E9 at its default N: only the tail-recursive SECD machine stays
     within a constant factor of S_tail *)
  let rows = R.run (X.Sanity.grid ()) in
  let verdict engine =
    match
      List.find_opt (fun (row : X.Sanity.row) -> row.X.Sanity.engine = engine) rows
    with
    | Some row -> row.X.Sanity.verdict
    | None -> Alcotest.failf "no E9 row %S" engine
  in
  Alcotest.check ruling "tail-recursive SECD is properly tail recursive" X.Holds
    (verdict "secd (tail-recursive)");
  Alcotest.check ruling "classic SECD leaks" X.Fails (verdict "secd (classic)");
  Alcotest.check ruling "I_gc leaks" X.Fails (verdict "reference I_gc (control)")

let test_loghier_verdicts () =
  (* E10 at its default N (20 to 160): every separation survives the
     log model, gc/tail included (Log_gc grows by one frame's bits per
     iteration over a constant of about 4 400 bits). *)
  let r = R.run (X.LogHier.grid ()) in
  Alcotest.(check (list string)) "the four separations"
    [ "stack/gc"; "gc/tail"; "tail/evlis"; "evlis/sfs" ]
    (List.map (fun (v : X.verdict) -> v.X.claim) r.X.LogHier.pairs);
  List.iter
    (fun (v : X.verdict) ->
      Alcotest.check ruling (v.X.claim ^ " survives under Log") X.Holds v.X.ruling)
    (r.X.LogHier.pairs @ [ r.X.LogHier.thm26 ]);
  Alcotest.(check (list (pair string ruling)))
    "Theorem 24 chain on Log"
    [ ("countdown", X.Holds); ("fib-iter", X.Holds); ("even-odd", X.Holds) ]
    r.X.LogHier.chain_rows

(* A point that did not answer leaves its series without an exponent,
   so no verdict or chain row can pass on it, and the report says
   "unresolved" rather than a negative finding. At fuel 8000 stack/gc
   loses every N = 320 point and tail/evlis its N = 160 and 320 points,
   and only gc/tail answers everywhere. *)
let test_thm25_failed_points () =
  let sweeps = R.run (X.Thm25.grid ~fuel:8000 ()) in
  let claims = X.Thm25.claims sweeps in
  Alcotest.(check (list string))
    "claims that hold"
    [ "gc/tail: S_gc separates from S_tail"; "gc/tail: S_tail bounded" ]
    (List.filter_map
       (fun (v : X.verdict) -> if v.X.ruling = X.Holds then Some v.X.claim else None)
       claims);
  let table = X.Thm25.render sweeps in
  List.iter
    (fun (v : X.verdict) ->
      if v.X.ruling <> X.Holds then
        Alcotest.(check bool)
          (v.X.claim ^ " reads unresolved")
          true
          (contains table (Printf.sprintf "  [unresolved] %s  (" v.X.claim)))
    claims;
  Alcotest.(check bool) "no FAIL printed" false (contains table "[FAIL]")

(* At fuel 5 no point answers: every E10 row and chain entry is
   unresolved, rather than reading a missing Log figure as 0 or printing
   a collapse. *)
let test_loghier_failed_points () =
  let r = R.run (X.LogHier.grid ~fuel:5 ()) in
  List.iter
    (fun (v : X.verdict) ->
      Alcotest.check ruling (v.X.claim ^ " unresolved") X.Unresolved v.X.ruling)
    (r.X.LogHier.pairs @ [ r.X.LogHier.thm26 ]);
  Alcotest.(check (list (pair string ruling)))
    "Theorem 24 chain on Log"
    [ ("countdown", X.Unresolved); ("fib-iter", X.Unresolved); ("even-odd", X.Unresolved) ]
    r.X.LogHier.chain_rows;
  let table = X.LogHier.render r in
  Alcotest.(check bool) "no collapse printed" false (contains table "COLLAPSES");
  Alcotest.(check bool) "no violation printed" false (contains table "VIOLATED");
  Alcotest.(check bool) "chain entries unresolved" true
    (contains table
       "countdown unresolved, fib-iter unresolved, even-odd unresolved")

let test_sec4_shapes () =
  let rows = R.run (X.Sec4.grid ~ns:[ 16; 32; 64 ] ()) in
  let find spine variant =
    List.find
      (fun (s : X.series) -> s.X.label = [ spine; M.variant_name variant ])
      rows
  in
  let spread (s : X.series) =
    let ds = List.map (fun (_, d) -> Option.get d) s.X.figures in
    List.fold_left Stdlib.max min_int ds - List.fold_left Stdlib.min max_int ds
  in
  (* right spine: traversal overhead flat under I_tail, growing under I_gc *)
  Alcotest.(check bool) "tail flat" true (spread (find "right" M.Tail) < 50);
  Alcotest.(check bool) "gc grows" true (spread (find "right" M.Gc) > 1000);
  (* left spine grows even under I_tail *)
  Alcotest.(check bool) "left tail grows" true (spread (find "left" M.Tail) > 500)

let () =
  Alcotest.run "harness"
    [
      ( "growth",
        [
          Alcotest.test_case "constant" `Quick test_constant;
          Alcotest.test_case "logarithmic" `Quick test_logarithmic;
          Alcotest.test_case "linear" `Quick test_linear;
          Alcotest.test_case "linearithmic" `Quick test_linearithmic;
          Alcotest.test_case "quadratic" `Quick test_quadratic;
          Alcotest.test_case "constants cancel" `Quick test_constants_cancel;
          Alcotest.test_case "unresolved" `Quick test_unresolved;
          Alcotest.test_case "needs 3 points" `Quick test_needs_points;
          Alcotest.test_case "separates" `Quick test_separates;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "sweep" `Quick test_runner_sweep;
          Alcotest.test_case "stuck excluded" `Quick test_runner_stuck_excluded;
          Alcotest.test_case "grid runs each point once" `Quick
            test_runner_grid_dedup;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig2" `Quick test_fig2_runs;
          Alcotest.test_case "thm25 reduced" `Quick test_thm25_reduced;
          Alcotest.test_case "thm25 claims (full size)" `Slow test_thm25_claims_full;
          Alcotest.test_case "thm24 chain" `Slow test_thm24_chain;
          Alcotest.test_case "thm26 shape" `Quick test_thm26_shape;
          Alcotest.test_case "cor20 agreement" `Slow test_cor20_agreement;
          Alcotest.test_case "cps shapes" `Quick test_cps_shapes;
          Alcotest.test_case "sec4 shapes" `Quick test_sec4_shapes;
          Alcotest.test_case "ablation (E8)" `Quick test_ablation_choices_matter;
          Alcotest.test_case "sanity verdicts (E9)" `Quick test_sanity_verdicts;
          Alcotest.test_case "log hierarchy verdicts (E10)" `Quick
            test_loghier_verdicts;
          Alcotest.test_case "failed points fail E2 claims" `Quick
            test_thm25_failed_points;
          Alcotest.test_case "failed points fail E10 rows" `Quick
            test_loghier_failed_points;
        ] );
    ]
