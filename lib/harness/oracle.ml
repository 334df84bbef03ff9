module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Census = Tailspace_core.Census
module Expand = Tailspace_expander.Expand
module Corpus = Tailspace_corpus.Corpus
module Families = Tailspace_corpus.Families
module Resilience = Tailspace_resilience.Resilience
module Json = Tailspace_telemetry.Telemetry.Json
module Bignum = Tailspace_bignum.Bignum
module P = Tailspace_provenance.Provenance

(* Corollary 20 says the observable answer is independent of the
   machine variant; the lazy-collection argument behind Definition 21
   says the [`Exact] peak is the sup of live space and therefore
   independent of the collection schedule. The oracle re-checks both
   under adversarial schedules: for each (program, variant), a baseline
   run is compared against runs whose fault plans force collections at
   hostile times. Forced collections may only add [gc_runs]; they must
   change neither the answer nor any model's [`Exact] peak. *)

type check = {
  family : string;
  n : int;
  variant : Machine.variant;
  plan : string;
  answer_agrees : bool;
  peak_stable : bool;
  baseline_status : string;
  status : string;
  baseline_peak : int;
  peak : int;
}

type report = {
  checks : check list;
  cross_variant_agree : bool;
  algol_stuck_on_demand : bool;
  vm_invariant : bool;
  vm_failures : string list;
  census_invariant : bool;
  census_failures : string list;
  fixnum_invariant : bool;
  fixnum_failures : string list;
  log_invariant : bool;
  log_failures : string list;
  ok : bool;
}

(* The hostile GC schedules each (program, variant) is re-run under:
   collect before every step, every third step, and two seeded
   pseudorandom schedules. *)
let adversarial_plans =
  [
    Resilience.Fault.make ~label:"gc-every-1" ~gc_every:1 ();
    Resilience.Fault.make ~label:"gc-every-3" ~gc_every:3 ();
    Resilience.Fault.make ~label:"gc-seed-1" ~gc_seed:1 ();
    Resilience.Fault.make ~label:"gc-seed-42" ~gc_seed:42 ();
  ]

let default_programs () =
  let expand src = Expand.program_of_string src in
  List.map (fun (name, src) -> (name, expand src, 12)) Families.separators
  @ List.filter_map
      (fun name ->
        match Corpus.find name with
        | Some e -> (
            match e.Corpus.checks with
            | (n, _) :: _ -> Some (e.Corpus.name, Corpus.program e, n)
            | [] -> None)
        | None -> None)
      [ "countdown"; "fib-iter"; "even-odd" ]

(* Every model is measured, so the heavy schedule — which, like the flat
   one, skips collections on configurations the transition rules prove
   garbage-free — is held to the same schedule independence. *)
let check_point ~fuel ~family ~program ~n variant =
  let config = Machine.Config.make ~variant () in
  let run ?fault () =
    Runner.run_once
      ~opts:(Machine.Run_opts.make ~fuel ?fault ~measure:Space_model.all ())
      ~config ~program ~n ()
  in
  let baseline = run () in
  List.map
    (fun plan ->
      let m = run ~fault:plan () in
      {
        family;
        n;
        variant;
        plan = Resilience.Fault.label plan;
        answer_agrees =
          (match (baseline.Runner.status, m.Runner.status) with
          | Runner.Answer a, Runner.Answer b -> String.equal a b
          | Runner.Stuck _, Runner.Stuck _ -> true
          | a, b -> a = b);
        peak_stable = baseline.Runner.peaks = m.Runner.peaks;
        baseline_status = Runner.status_text baseline;
        status = Runner.status_text m;
        baseline_peak = Runner.peak_space baseline;
        peak = Runner.peak_space m;
      })
    adversarial_plans

(* [I_stack] under the Algol deletion policy reports a dangling pointer
   when a closure escapes the call that allocated its free variables —
   the stuck state §8 builds the stack/gc separation on. The oracle
   exercises it on demand so the failure path stays reachable. *)
let algol_dangling () =
  let program =
    Expand.program_of_string "(define (make n) (lambda (ignored) n)) (define (go n) ((make n) 0)) go"
  in
  let m =
    Runner.run_once
      ~config:
        (Machine.Config.make ~variant:Machine.Stack
           ~stack_policy:Machine.Algol ())
      ~program ~n:5 ()
  in
  match m.Runner.status with Runner.Stuck _ -> true | _ -> false

let cross_variant ~fuel programs =
  List.for_all
    (fun (_, program, n) ->
      let answers =
        List.map
          (fun variant ->
            Runner.status_text
              (Runner.run_once
                 ~opts:(Machine.Run_opts.make ~fuel ())
                 ~config:(Machine.Config.make ~variant ())
                 ~program ~n ()))
          Machine.all_variants
      in
      match answers with
      | first :: rest -> List.for_all (String.equal first) rest
      | [] -> true)
    programs

(* The fast bytecode VM is the seventh engine: on every corpus entry (at
   its first checked input) it must produce the Tail stepper's answer.
   Entries not marked [slow] are additionally compared against all six
   variants (whose answers Corollary 20 makes interchangeable). *)
let vm_agreement ~fuel () =
  List.concat_map
    (fun (e : Corpus.entry) ->
      match e.Corpus.checks with
      | [] -> []
      | (n, _) :: _ ->
          let program = Corpus.program e in
          let opts = Machine.Run_opts.make ~fuel () in
          let status engine variant =
            Runner.status_text
              (Runner.run_once ~opts
                 ~config:(Machine.Config.make ~engine ~variant ())
                 ~program ~n ())
          in
          let tail = status Machine.Stepper Machine.Tail in
          let fast = status Machine.Vm_fast Machine.Tail in
          let fails = ref [] in
          let add fmt =
            Printf.ksprintf
              (fun s -> fails := Printf.sprintf "%s n=%d: %s" e.Corpus.name n s :: !fails)
              fmt
          in
          if not (String.equal fast tail) then
            add "fast VM %s vs stepper %s" fast tail;
          if not e.Corpus.slow then
            List.iter
              (fun variant ->
                if variant <> Machine.Tail then begin
                  let m = status Machine.Stepper variant in
                  if not (String.equal m fast) then
                    add "fast VM %s vs %s stepper %s" fast
                      (Machine.variant_name variant) m
                end)
              Machine.all_variants;
          List.rev !fails)
    Corpus.all

(* The provenance layer claims an invariant strong enough to check
   differentially: every census sums exactly to the measured peak (flat,
   linked and log, all six variants — [Provenance.total] telescopes back
   to the figure telemetry reported), and its flamegraph stacks
   partition the peak. *)
let census_agreement ~fuel () =
  let fails = ref [] in
  let add fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let censuses variant program n =
    let census = Census.create () in
    let opts =
      Machine.Run_opts.make ~fuel
        ~measure:[ Space_model.Flat; Space_model.Linked; Space_model.Log ]
        ~provenance:census ()
    in
    let m =
      Runner.run_once ~opts
        ~config:(Machine.Config.make ~variant ())
        ~program ~n ()
    in
    (* [Runner.consumption] folds the program size in; the census peaks
       are the raw per-model machine figures. *)
    let raw model = Option.value (Runner.peak_of m model) ~default:0 in
    ( Census.flat_census census ~peak:(raw Space_model.Flat),
      Census.linked_census census ~peak:(raw Space_model.Linked),
      Census.log_census census ~peak:(raw Space_model.Log) )
  in
  let check_sums name variant (c : P.t option) what =
    match c with
    | None -> add "%s %s: no %s census captured" name variant what
    | Some c ->
        if P.total c <> c.P.peak then
          add "%s %s: %s census sums to %d, telemetry peak %d" name variant
            what (P.total c) c.P.peak;
        let stack_sum =
          List.fold_left (fun acc (s : P.stack) -> acc + s.P.swords) 0 c.P.stacks
        in
        if c.P.stacks <> [] && stack_sum <> c.P.peak then
          add "%s %s: %s flamegraph stacks sum to %d, peak %d" name variant
            what stack_sum c.P.peak
  in
  List.iter
    (fun name ->
      match Corpus.find name with
      | None -> add "census: corpus entry %s missing" name
      | Some e ->
          let n = match e.Corpus.checks with (n, _) :: _ -> n | [] -> 0 in
          let program = Corpus.program e in
          List.iter
            (fun variant ->
              let v = Machine.variant_name variant in
              let flat, linked, log = censuses variant program n in
              check_sums name v flat "flat";
              check_sums name v linked "linked";
              check_sums name v log "log")
            Machine.all_variants)
    [ "countdown"; "append" ];
  List.rev !fails

(* The space model charges an exact integer by its magnitude
   ([1 + bit_length z]), never by its representation, so toggling the
   bignum fixnum fast path must be observationally invisible: same
   status, same step count, same measured peak, on every variant and
   every engine. Run the differential A/B with the tag on and off —
   six variants under the stepper, plus the fast VM on [Tail] — over
   the default programs and the factorial entry (whose intermediates
   cross the fixnum/limb promotion boundary both ways). *)
let fixnum_agreement ~fuel programs =
  let programs =
    programs
    @ List.filter_map
        (fun name ->
          match Corpus.find name with
          | Some e -> (
              match List.rev e.Corpus.checks with
              | (n, _) :: _ -> Some (e.Corpus.name, Corpus.program e, n)
              | [] -> None)
          | None -> None)
        [ "fact" ]
  in
  let engines =
    List.map (fun v -> (Machine.Stepper, v)) Machine.all_variants
    @ [ (Machine.Vm_fast, Machine.Tail) ]
  in
  let restore = Bignum.fixnums_enabled () in
  Fun.protect
    ~finally:(fun () -> Bignum.set_fixnums restore)
    (fun () ->
      List.concat_map
        (fun (family, program, n) ->
          List.filter_map
            (fun (engine, variant) ->
              let opts = Machine.Run_opts.make ~fuel () in
              let config = Machine.Config.make ~engine ~variant () in
              let point enabled =
                Bignum.set_fixnums enabled;
                Runner.run_once ~opts ~config ~program ~n ()
              in
              let on = point true in
              let off = point false in
              (* The fast tier compiles accounting out: steps and peaks
                 are not reported there, so compare observable status
                 only (as [vm_agreement] does). *)
              let accounted = engine <> Machine.Vm_fast in
              if
                String.equal (Runner.status_text on) (Runner.status_text off)
                && ((not accounted)
                   || on.Runner.steps = off.Runner.steps
                      && Runner.peak_space on = Runner.peak_space off)
              then None
              else
                Some
                  (Printf.sprintf
                     "%s n=%d %s/%s: fixnums on %s steps=%d peak=%d vs off %s \
                      steps=%d peak=%d"
                     family n
                     (Machine.engine_name engine)
                     (Machine.variant_name variant)
                     (Runner.status_text on) on.Runner.steps
                     (Runner.peak_space on) (Runner.status_text off)
                     off.Runner.steps (Runner.peak_space off)))
            engines)
        programs)

(* The logarithmic model charges every linked unit at the pointer size
   of the measured store, so three pointwise bounds tie the models
   together at every configuration and therefore at the peaks:
   [U_X <= S_X] (the §13 dedup argument), [U_X <= Log_X] (a pointer is
   at least one bit), and [Log_X <= 64·S_X] (pointer size never exceeds
   the machine word). The oracle re-measures every default program on
   all six variants under all three models and checks the laws. *)
let log_agreement ~fuel programs =
  let measure = [ Space_model.Flat; Space_model.Linked; Space_model.Log ] in
  let fails = ref [] in
  let add fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  List.iter
    (fun (family, program, n) ->
      List.iter
        (fun variant ->
          let v = Machine.variant_name variant in
          let m =
            Runner.run_once
              ~opts:(Machine.Run_opts.make ~fuel ~measure ())
              ~config:(Machine.Config.make ~variant ())
              ~program ~n ()
          in
          let s = Runner.peak_space m in
          match (Runner.peak_linked m, Runner.peak_log m) with
          | Some u, Some l ->
              if u > s then
                add "%s n=%d %s: linked peak %d exceeds flat peak %d" family n
                  v u s;
              if l < u then
                add "%s n=%d %s: log peak %d below linked peak %d" family n v
                  l u;
              if l > Space_model.word_bits * s then
                add "%s n=%d %s: log peak %d exceeds %d * flat peak %d" family
                  n v l Space_model.word_bits s
          | _ -> add "%s n=%d %s: linked/log peaks not measured" family n v)
        Machine.all_variants)
    programs;
  List.rev !fails

let run ?(fuel = 2_000_000) ?programs () =
  let programs =
    match programs with Some ps -> ps | None -> default_programs ()
  in
  let checks =
    List.concat_map
      (fun (family, program, n) ->
        List.concat_map
          (fun variant -> check_point ~fuel ~family ~program ~n variant)
          Machine.all_variants)
      programs
  in
  let cross_variant_agree = cross_variant ~fuel programs in
  let algol_stuck_on_demand = algol_dangling () in
  let vm_failures = vm_agreement ~fuel () in
  let vm_invariant = vm_failures = [] in
  let census_failures = census_agreement ~fuel () in
  let census_invariant = census_failures = [] in
  let fixnum_failures = fixnum_agreement ~fuel programs in
  let fixnum_invariant = fixnum_failures = [] in
  let log_failures = log_agreement ~fuel programs in
  let log_invariant = log_failures = [] in
  let ok =
    cross_variant_agree && algol_stuck_on_demand && vm_invariant
    && census_invariant && fixnum_invariant && log_invariant
    && List.for_all (fun c -> c.answer_agrees && c.peak_stable) checks
  in
  {
    checks;
    cross_variant_agree;
    algol_stuck_on_demand;
    vm_invariant;
    vm_failures;
    census_invariant;
    census_failures;
    fixnum_invariant;
    fixnum_failures;
    log_invariant;
    log_failures;
    ok;
  }

let failures r =
  List.filter (fun c -> not (c.answer_agrees && c.peak_stable)) r.checks

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "differential oracle: %d checks, cross-variant agreement %s, algol \
        dangling-pointer stuck state %s, bytecode VM agreement %s, census \
        invariance %s, fixnum invariance %s, log-model laws %s\n"
       (List.length r.checks)
       (if r.cross_variant_agree then "ok" else "FAILED")
       (if r.algol_stuck_on_demand then "reachable" else "NOT REACHABLE")
       (if r.vm_invariant then "ok" else "FAILED")
       (if r.census_invariant then "ok" else "FAILED")
       (if r.fixnum_invariant then "ok" else "FAILED")
       (if r.log_invariant then "ok" else "FAILED"));
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "VM MISMATCH %s\n" f))
    r.vm_failures;
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "CENSUS MISMATCH %s\n" f))
    r.census_failures;
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "FIXNUM MISMATCH %s\n" f))
    r.fixnum_failures;
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "LOG MISMATCH %s\n" f))
    r.log_failures;
  (match failures r with
  | [] -> Buffer.add_string buf "all adversarial schedules agree with baseline\n"
  | fs ->
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf
               "MISMATCH %s n=%d %s plan=%s: %s vs %s, peak %d vs %d\n" c.family
               c.n
               (Machine.variant_name c.variant)
               c.plan c.baseline_status c.status c.baseline_peak c.peak))
        fs);
  Buffer.add_string buf (if r.ok then "oracle: OK\n" else "oracle: FAILED\n");
  Buffer.contents buf

let check_to_json c =
  Json.Obj
    [
      ("family", Json.Str c.family);
      ("n", Json.Int c.n);
      ("variant", Json.Str (Machine.variant_name c.variant));
      ("plan", Json.Str c.plan);
      ("answer_agrees", Json.Bool c.answer_agrees);
      ("peak_stable", Json.Bool c.peak_stable);
      ("baseline_status", Json.Str c.baseline_status);
      ("status", Json.Str c.status);
      ("baseline_peak", Json.Int c.baseline_peak);
      ("peak", Json.Int c.peak);
    ]

let to_json r =
  Json.Obj
    [
      ("ok", Json.Bool r.ok);
      ("cross_variant_agree", Json.Bool r.cross_variant_agree);
      ("algol_stuck_on_demand", Json.Bool r.algol_stuck_on_demand);
      ("vm_invariant", Json.Bool r.vm_invariant);
      ("vm_failures", Json.List (List.map (fun s -> Json.Str s) r.vm_failures));
      ("census_invariant", Json.Bool r.census_invariant);
      ( "census_failures",
        Json.List (List.map (fun s -> Json.Str s) r.census_failures) );
      ("fixnum_invariant", Json.Bool r.fixnum_invariant);
      ( "fixnum_failures",
        Json.List (List.map (fun s -> Json.Str s) r.fixnum_failures) );
      ("log_invariant", Json.Bool r.log_invariant);
      ("log_failures", Json.List (List.map (fun s -> Json.Str s) r.log_failures));
      ("checks", Json.Int (List.length r.checks));
      ("failures", Json.List (List.map check_to_json (failures r)));
    ]
