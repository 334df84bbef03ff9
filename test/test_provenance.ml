(* The space-provenance profiler: golden per-site censuses for the
   countdown and append families on I_tail vs I_stack (exact word
   counts pinned — the census is deterministic), plus the invariant
   that per-site live words sum exactly to the measured peak under the
   flat, linked, and log measures, on fixed inputs and on QCheck
   draws. *)

module M = Tailspace_core.Machine
module SM = Tailspace_core.Space_model
module Census = Tailspace_core.Census
module P = Tailspace_provenance.Provenance
module R = Tailspace_harness.Runner
module Table = Tailspace_harness.Table
module Corpus = Tailspace_corpus.Corpus

let corpus_program name =
  match Corpus.find name with
  | Some e -> Corpus.program e
  | None -> Alcotest.failf "corpus entry %S missing" name

(* One profiled run: the censuses and the raw per-model peaks they
   must sum to — the measurement's [peaks] carry the store peaks with
   no |P| term, exactly what the censuses decompose. *)
let all_models = [ SM.Flat; SM.Linked; SM.Log ]

let profile ~variant name n =
  let program = corpus_program name in
  let census = Census.create () in
  let opts =
    M.Run_opts.make ~fuel:2_000_000 ~measure:all_models ~provenance:census ()
  in
  let m =
    R.run_once ~opts ~config:(M.Config.make ~variant ()) ~program ~n ()
  in
  let flat = Census.flat_census census ~peak:(R.peak_space m) in
  let linked =
    match R.peak_linked m with
    | Some u -> Census.linked_census census ~peak:u
    | None -> None
  in
  let log =
    match R.peak_log m with
    | Some l -> Census.log_census census ~peak:l
    | None -> None
  in
  (m, flat, linked, log)

let rows_of (c : P.t) =
  List.map (fun (r : P.row) -> (r.P.site, P.phase_name r.P.phase, r.P.words)) c.P.rows

let row_t = Alcotest.(triple int string int)

let check_census what expected = function
  | None -> Alcotest.failf "%s: no census was stashed" what
  | Some c ->
      Alcotest.check (Alcotest.list row_t) what expected (rows_of c);
      Alcotest.(check int) (what ^ ": rows sum to peak") c.P.peak (P.total c)

(* --- golden censuses ---------------------------------------------- *)

let test_golden_countdown_tail () =
  let _, flat, linked, log = profile ~variant:M.Tail "countdown" 10 in
  check_census "countdown/tail flat"
    [
      (-1, "globals", 2793);
      (548, "frame", 102);
      (-1, "control", 101);
      (547, "frame", 101);
      (552, "frame", 101);
      (-1, "register-env", 100);
      (534, "closure", 2);
      (546, "closure", 2);
      (550, "rib", 2);
      (-1, "halt", 1);
    ]
    flat;
  check_census "countdown/tail linked"
    [
      (-1, "globals", 357);
      (552, "rib", 7);
      (-1, "control", 5);
      (543, "frame", 3);
      (550, "rib", 3);
      (544, "frame", 2);
      (546, "closure", 2);
      (-1, "halt", 1);
    ]
    linked;
  check_census "countdown/tail log"
    [
      (-1, "globals", 2856);
      (552, "rib", 56);
      (-1, "control", 40);
      (543, "frame", 24);
      (550, "rib", 24);
      (544, "frame", 16);
      (546, "closure", 16);
      (-1, "halt", 8);
    ]
    log;
  (* a census table states its unit: a log census is in bits *)
  let title c = List.hd (String.split_on_char '\n' (Table.census (Option.get c))) in
  Alcotest.(check (list string)) "census titles"
    [ "linked census: peak 380 words"; "log census: peak 3040 bits" ]
    [ title linked; title log ]

let test_golden_countdown_stack () =
  let _, flat, linked, _ = profile ~variant:M.Stack "countdown" 10 in
  check_census "countdown/stack flat"
    [
      (-1, "globals", 2793);
      (544, "frame", 1010);
      (537, "frame", 103);
      (545, "frame", 102);
      (550, "rib", 102);
      (-1, "register-env", 101);
      (552, "frame", 101);
      (544, "rib", 45);
      (552, "rib", 6);
      (546, "closure", 2);
      (-1, "control", 1);
      (-1, "halt", 1);
    ]
    flat;
  check_census "countdown/stack linked"
    [
      (-1, "globals", 357);
      (544, "rib", 44);
      (544, "frame", 11);
      (552, "rib", 6);
      (543, "frame", 3);
      (550, "rib", 3);
      (-1, "control", 2);
      (546, "closure", 2);
      (-1, "halt", 1);
      (552, "frame", 1);
    ]
    linked

let test_golden_append_tail () =
  let _, flat, _, log = profile ~variant:M.Tail "append" 6 in
  check_census "append/tail flat"
    [
      (-1, "globals", 2793);
      (561, "frame", 642);
      (587, "rib", 315);
      (543, "frame", 108);
      (544, "frame", 107);
      (559, "frame", 107);
      (560, "frame", 106);
      (-1, "register-env", 104);
      (561, "bignum", 26);
      (560, "rib", 21);
      (561, "pair", 20);
      (542, "rib", 5);
      (589, "rib", 5);
      (-1, "control", 2);
      (545, "closure", 2);
      (561, "atom", 2);
      (563, "closure", 2);
      (565, "rib", 2);
      (583, "closure", 2);
      (585, "rib", 2);
      (-1, "halt", 1);
    ]
    flat;
  check_census "append/tail log"
    [
      (-1, "globals", 2856);
      (580, "rib", 464);
      (561, "bignum", 416);
      (561, "pair", 320);
      (581, "frame", 144);
      (543, "rib", 80);
      (587, "rib", 72);
      (589, "rib", 48);
      (561, "atom", 32);
      (565, "rib", 24);
      (585, "rib", 24);
      (544, "frame", 16);
      (545, "closure", 16);
      (563, "closure", 16);
      (569, "frame", 16);
      (583, "closure", 16);
      (-1, "control", 8);
      (-1, "halt", 8);
      (582, "frame", 8);
    ]
    log

let test_golden_append_stack () =
  let _, flat, _, _ = profile ~variant:M.Stack "append" 6 in
  check_census "append/stack flat"
    [
      (-1, "globals", 2793);
      (561, "frame", 642);
      (560, "frame", 624);
      (587, "rib", 315);
      (543, "frame", 108);
      (544, "frame", 107);
      (551, "frame", 106);
      (562, "frame", 105);
      (589, "frame", 105);
      (-1, "register-env", 104);
      (542, "frame", 104);
      (561, "bignum", 26);
      (560, "rib", 23);
      (561, "pair", 20);
      (542, "rib", 5);
      (589, "rib", 5);
      (545, "closure", 2);
      (561, "atom", 2);
      (563, "closure", 2);
      (565, "rib", 2);
      (583, "closure", 2);
      (585, "rib", 2);
      (-1, "control", 1);
      (-1, "halt", 1);
    ]
    flat

(* The non-tail accumulation shows up as continuation-frame words on
   the recursive call sites; diffing I_tail against I_stack must
   surface frame rows that only I_stack carries. *)
let test_diff_surfaces_stack_frames () =
  let _, fa, _, _ = profile ~variant:M.Tail "append" 6 in
  let _, fb, _, _ = profile ~variant:M.Stack "append" 6 in
  match (fa, fb) with
  | Some ca, Some cb ->
      let deltas = P.diff ca cb in
      let stack_only_frames =
        List.filter
          (fun (d : P.delta) ->
            d.P.dphase = P.P_frame && d.P.words_a = 0 && d.P.words_b > 0)
          deltas
      in
      Alcotest.(check bool)
        "I_stack carries frame sites I_tail reclaims" true
        (stack_only_frames <> []);
      (* deltas are sorted by decreasing |delta| *)
      let abs_deltas =
        List.map (fun (d : P.delta) -> abs (d.P.words_b - d.P.words_a)) deltas
      in
      Alcotest.(check bool)
        "deltas sorted" true
        (List.sort (fun a b -> compare b a) abs_deltas = abs_deltas)
  | _ -> Alcotest.fail "censuses missing"

(* The retainer walk gives a cell that two retainers reach at one depth
   to the one it meets first. An environment's locations are met by
   decreasing identifier in [String] order, whatever order the
   environment keeps its keys in, so in [g]'s frame [b]'s pair retains
   the shared list before [abc]'s does. *)
let test_retainer_ties () =
  let program =
    Tailspace_expander.Expand.program_of_string
      "(define (upto k) (if (zero? k) '() (cons k (upto (- k 1)))))\n\
       (define (g b abc) (car (upto 200)))\n\
       (define (f n) (let ((s (list n n))) (g (cons 1 s) (cons 2 s))))\n\
       f"
  in
  List.iter
    (fun variant ->
      let census = Census.create () in
      let opts = M.Run_opts.make ~provenance:census () in
      let m = R.run_once ~opts ~config:(M.Config.make ~variant ()) ~program ~n:3 () in
      match Census.flat_census census ~peak:(R.peak_space m) with
      | None -> Alcotest.fail "no census"
      | Some c ->
          let label site = List.assoc_opt site c.P.labels in
          let through text =
            List.exists
              (fun (st : P.stack) ->
                let path = List.map (fun (site, _) -> label site) st.P.path in
                List.mem (Some text) path && List.mem (Some "(list n n)") path)
              c.P.stacks
          in
          let name = M.variant_name variant in
          Alcotest.(check bool) (name ^ ": through b's pair") true
            (through "(cons (quote 1) s)");
          Alcotest.(check bool) (name ^ ": not through abc's") false
            (through "(cons (quote 2) s)"))
    [ M.Tail; M.Gc; M.Free ]

(* --- the sum-to-total invariant, property-checked ------------------ *)

let fast_entries =
  Corpus.all
  |> List.filter (fun (e : Corpus.entry) -> (not e.Corpus.slow) && e.Corpus.checks <> [])

let census_sums_to_peak (e : Corpus.entry) variant n =
  let census = Census.create () in
  let opts =
    M.Run_opts.make ~fuel:2_000_000 ~measure:all_models
      ~provenance:census ()
  in
  let m =
    R.run_once ~opts
      ~config:(M.Config.make ~variant ())
      ~program:(Corpus.program e) ~n ()
  in
  let flat_ok =
    match Census.flat_census census ~peak:(R.peak_space m) with
    | None -> m.R.steps = 0
    | Some c ->
        P.total c = c.P.peak
        && c.P.peak = R.peak_space m
        && List.fold_left
             (fun a (s : P.stack) -> a + s.P.swords)
             0 c.P.stacks
           = c.P.peak
  in
  let heavy_ok census_of peak_of =
    match peak_of m with
    | None -> false
    | Some p -> (
        match census_of census ~peak:p with
        | None -> m.R.steps = 0
        | Some c -> P.total c = c.P.peak && c.P.peak = p)
  in
  flat_ok
  && heavy_ok Census.linked_census R.peak_linked
  && heavy_ok Census.log_census R.peak_log

let prop_census_sums_to_peak =
  QCheck.Test.make ~count:40 ~name:"census sums to measured peak (all measures)"
    QCheck.(
      triple
        (int_bound (List.length fast_entries - 1))
        (int_bound (List.length M.all_variants - 1))
        (int_range 1 8))
    (fun (ei, vi, n) ->
      census_sums_to_peak (List.nth fast_entries ei)
        (List.nth M.all_variants vi)
        n)

(* The property's fixed inputs, run before its random draws: countdown
   and append at their first check, on every variant. *)
let test_census_sums_to_peak =
  let name, speed, draws = QCheck_alcotest.to_alcotest prop_census_sums_to_peak in
  ( name,
    speed,
    fun () ->
      List.iter
        (fun entry ->
          match Corpus.find entry with
          | Some ({ Corpus.checks = (n, _) :: _; _ } as e) ->
              List.iter
                (fun variant ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s n=%d %s" entry n (M.variant_name variant))
                    true
                    (census_sums_to_peak e variant n))
                M.all_variants
          | _ -> Alcotest.failf "corpus entry %s has no checks" entry)
        [ "countdown"; "append" ];
      draws () )

let () =
  Alcotest.run "provenance"
    [
      ( "golden",
        [
          Alcotest.test_case "countdown I_tail" `Quick test_golden_countdown_tail;
          Alcotest.test_case "countdown I_stack" `Quick
            test_golden_countdown_stack;
          Alcotest.test_case "append I_tail" `Quick test_golden_append_tail;
          Alcotest.test_case "append I_stack" `Quick test_golden_append_stack;
        ] );
      ( "diff",
        [
          Alcotest.test_case "tail vs stack frames" `Quick
            test_diff_surfaces_stack_frames;
        ] );
      ( "stacks",
        [ Alcotest.test_case "retainer ties by identifier" `Quick test_retainer_ties ] );
      ( "invariant", [ test_census_sums_to_peak ] );
    ]
