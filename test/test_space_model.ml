(* The space-model vocabulary type and the cross-model laws.

   - Unit: name/of_name round-trip, [normalize] is canonical and
     always includes Flat, [to_bits] scales words to bits, and a run
     under the default [Run_opts] measures the flat model only.
   - Laws: on the four separators at N = 12 and on random (corpus
     entry, variant, input) draws, on every variant, the measured raw
     peaks obey the pointwise model laws — [U <= S] (deduplication
     only removes words), [Log >= U] (a pointer costs at least one
     bit), and [Log <= word_bits * S] (a pointer never costs more than
     a word). *)

module SM = Tailspace_core.Space_model
module M = Tailspace_core.Machine
module R = Tailspace_harness.Runner
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families
module E = Tailspace_expander.Expand

let model_t =
  Alcotest.testable
    (fun ppf m -> Format.pp_print_string ppf (SM.name m))
    SM.equal

(* --- vocabulary ---------------------------------------------------- *)

let test_names_roundtrip () =
  List.iter
    (fun m ->
      Alcotest.(check (option model_t))
        (SM.name m ^ " round-trips") (Some m)
        (SM.of_name (SM.name m)))
    SM.all;
  Alcotest.(check (option model_t)) "unknown name" None (SM.of_name "phlat")

let test_normalize () =
  Alcotest.(check (list model_t)) "empty means flat" [ SM.Flat ]
    (SM.normalize []);
  Alcotest.(check (list model_t))
    "sorted, deduplicated, flat added"
    [ SM.Flat; SM.Linked; SM.Log ]
    (SM.normalize [ SM.Log; SM.Linked; SM.Log ])

let test_to_bits () =
  Alcotest.(check int) "flat words scale" (3 * SM.word_bits)
    (SM.to_bits SM.Flat 3);
  Alcotest.(check int) "linked words scale" (5 * SM.word_bits)
    (SM.to_bits SM.Linked 5);
  Alcotest.(check int) "log already in bits" 7 (SM.to_bits SM.Log 7)

let test_default_measures_flat () =
  let r =
    M.exec_string
      (M.create_with M.Config.default)
      "(define (f n) (if (zero? n) 'done (f (- n 1)))) (f 25)"
  in
  match r.M.peaks with
  | [ (SM.Flat, _) ] -> ()
  | _ -> Alcotest.fail "the default measures the flat model only"

(* --- the pointwise laws, property-checked -------------------------- *)

let fast_entries =
  Corpus.all
  |> List.filter (fun (e : Corpus.entry) ->
         (not e.Corpus.slow) && e.Corpus.checks <> [])

let laws_hold variant program n =
  let opts =
    M.Run_opts.make ~fuel:2_000_000 ~measure:[ SM.Flat; SM.Linked; SM.Log ] ()
  in
  let m = R.run_once ~opts ~config:(M.Config.make ~variant ()) ~program ~n () in
  match (R.peak_linked m, R.peak_log m) with
  | Some u, Some l ->
      let s = R.peak_space m in
      u <= s && u <= l && l <= SM.word_bits * s
  | _ -> false

let prop_model_laws =
  QCheck.Test.make ~count:60
    ~name:"peak laws: U <= S, U <= Log <= word_bits * S"
    QCheck.(
      triple
        (int_bound (List.length fast_entries - 1))
        (int_bound (List.length M.all_variants - 1))
        (int_range 1 8))
    (fun (ei, vi, n) ->
      laws_hold
        (List.nth M.all_variants vi)
        (Corpus.program (List.nth fast_entries ei))
        n)

(* The property's fixed inputs, run before its random draws: the four
   separators at N = 12 on every variant. *)
let test_model_laws =
  let name, speed, draws = QCheck_alcotest.to_alcotest prop_model_laws in
  ( name,
    speed,
    fun () ->
      List.iter
        (fun (family, src) ->
          let program = E.program_of_string src in
          List.iter
            (fun variant ->
              Alcotest.(check bool)
                (Printf.sprintf "%s n=12 %s" family (M.variant_name variant))
                true (laws_hold variant program 12))
            M.all_variants)
        Families.separators;
      draws () )

let () =
  Alcotest.run "space_model"
    [
      ( "vocabulary",
        [
          Alcotest.test_case "names round-trip" `Quick test_names_roundtrip;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "to_bits" `Quick test_to_bits;
          Alcotest.test_case "default measures flat only" `Quick
            test_default_measures_flat;
        ] );
      ("laws", [ test_model_laws ]);
    ]
