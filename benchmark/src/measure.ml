(* The measured loop. One caller, one domain, a closed loop: each point
   starts when the previous one has finished, and, like
   [Runner.run_once], every point builds a fresh machine. *)

module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Telemetry = Tailspace_telemetry.Telemetry
module Json = Telemetry.Json
module Resilience = Tailspace_resilience.Resilience
module Ast = Tailspace_ast.Ast
module Bignum = Tailspace_bignum.Bignum
module Reader = Tailspace_sexp.Reader
module Expand = Tailspace_expander.Expand
module Annot = Tailspace_analysis.Annot
module Vm = Tailspace_vm.Vm
module W = Workload

let now = Stats.now_ns
let fuel = 50_000_000
let input n = Ast.Quote (Ast.C_int (Bignum.of_int n))
let config (p : W.point) = Machine.Config.make ~variant:p.variant ()
let is_heavy models = List.exists (fun m -> m <> Space_model.Flat) models
let s_of ns = float ns /. 1e9
let us_of ns = float ns /. 1e3
let sum = List.fold_left ( + ) 0
let median_int xs = Stats.median (List.map float xs)

(* {1 Set-up}

   Everything a run needs before its first point: every distinct source
   read and expanded from text and annotated, and one machine built per
   distinct configuration. [setup_once] returns the programs by source
   apart from the timings, so that the timings of many set-ups can be
   kept without their programs. *)

type setup = {
  total : int;
  parse : int;
  expand : int;
  annot : int;
  creates : int list;
  nodes : int;
}

let distinct xs = List.sort_uniq compare xs

let setup_once (points : W.point array) =
  Expand.reset_gensym ();
  let field f = distinct (Array.to_list (Array.map f points)) in
  let sources = field (fun (p : W.point) -> p.source) in
  let variants = field (fun (p : W.point) -> p.variant) in
  let t0 = now () in
  let datums = List.map Reader.parse_all_exn sources in
  let t1 = now () in
  let exprs = List.map Expand.program datums in
  let t2 = now () in
  List.iter (fun e -> Annot.record (Annot.create ()) e) exprs;
  let t3 = now () in
  let creates =
    List.map
      (fun variant ->
        let a = now () in
        ignore
          (Sys.opaque_identity
             (Machine.create_with (Machine.Config.make ~variant ())));
        now () - a)
      variants
  in
  let t4 = now () in
  let programs = Hashtbl.create 64 in
  List.iter2 (Hashtbl.replace programs) sources exprs;
  ( {
      total = t4 - t0;
      parse = t1 - t0;
      expand = t2 - t1;
      annot = t3 - t2;
      creates;
      nodes = sum (List.map Ast.size exprs);
    },
    programs )

(* {1 Points} *)

type outcome = {
  steps : int;
  peaks : (Space_model.t * int) list;
  gc_runs : int;
  answer : (string, string) result;
}

let crashed e =
  { steps = 0; peaks = []; gc_runs = 0; answer = Error (Printexc.to_string e) }

let outcome_of = function
  | Error e -> crashed e
  | Ok (r : Machine.result) ->
      {
        steps = r.steps;
        peaks = r.peaks;
        gc_runs = r.gc_runs;
        answer =
          (match r.outcome with
          | Machine.Done { answer; _ } -> Ok answer
          | Machine.Stuck m -> Error ("stuck: " ^ m)
          | Machine.Aborted { reason; _ } ->
              Error ("aborted: " ^ Resilience.abort_reason_message reason));
      }

let same_figures a b =
  a.steps = b.steps && a.peaks = b.peaks && a.gc_runs = b.gc_runs

(* The answer reference is the fast VM tier, which has its own runtime
   and value domain; the corpus's hand-written checks cover any point
   it refuses. *)
let reference (p : W.point) program =
  let vm =
    match
      Vm.exec_program
        ~opts:(Machine.Run_opts.make ~fuel ())
        (Machine.Config.make ~engine:Machine.Vm_fast ())
        ~program ~input:(input p.n)
    with
    | { Vm.outcome = Vm.Done a; _ } -> Some a
    | _ -> None
    | exception Invalid_argument _ -> None
  in
  match vm with Some _ -> vm | None -> List.assoc_opt p.n p.checks

(* Space-model laws every heavy point obeys: U <= S, U <= Log <= 64 S. *)
let log_laws peaks =
  match
    ( List.assoc_opt Space_model.Flat peaks,
      List.assoc_opt Space_model.Linked peaks,
      List.assoc_opt Space_model.Log peaks )
  with
  | Some s, Some u, Some l -> u <= s && u <= l && l <= Space_model.word_bits * s
  | Some _, None, None -> true
  | _ -> false

(* [ns] is the raw pass time, the sum of the point times; [scaled] holds
   every point's time scaled by {!Calib}, in nanoseconds. *)
type pass = { ns : int; scaled : float array; outcomes : outcome array }

type inputs = {
  points : W.point array;
  programs : Ast.expr array;
  args : Ast.expr array;
  configs : Machine.Config.t array;
  opts : Machine.Run_opts.t array;
}

let timed_pass (x : inputs) =
  let k = Array.length x.points in
  let point_ns = Array.make k 0 and slices = Array.make k 0 in
  let outcomes = Array.make k (crashed Not_found) in
  for i = 0 to k - 1 do
    let a = now () in
    let r =
      try
        let m = Machine.create_with x.configs.(i) in
        Ok
          (Machine.exec_program ~opts:x.opts.(i) m ~program:x.programs.(i)
             ~input:x.args.(i))
      with e -> Error e
    in
    point_ns.(i) <- now () - a;
    slices.(i) <- Calib.slice ();
    outcomes.(i) <- outcome_of r
  done;
  let scale = Calib.scales slices in
  {
    ns = Array.fold_left ( + ) 0 point_ns;
    scaled = Array.mapi (fun i ns -> float ns *. scale.(i)) point_ns;
    outcomes;
  }

(* {1 The traced pass}

   The same points with a step probe attached, a span around each call
   into a layer, and, for heavy points, a flat-only twin run whose exec
   time is the baseline the heavy walk is charged against. *)

type traced = {
  t_ns : int;
  t_outcomes : outcome array;
  attempts : int array;
  twins : outcome option array;
  summary : Telemetry.summary;
  plain : Stats.Hist.t;
  collect_ns : int;
  exec_ns : int;
  heavy_exec_ns : int;
  heavy_diff_ns : int;
  heavy_steps : int;
  twin_ns : int;
  spans : Trace.t;
}

let traced_pass (x : inputs) =
  let k = Array.length x.points in
  let spans = Trace.create () in
  let plain = Stats.Hist.create () in
  let twin_plain = Stats.Hist.create () in
  let t_outcomes = Array.make k (crashed Not_found) in
  let attempts = Array.make k 0 in
  let twins = Array.make k None in
  let summaries = ref [] in
  let collect_ns = ref 0 and exec_ns = ref 0 in
  let heavy_exec_ns = ref 0 and heavy_diff_ns = ref 0 and heavy_steps = ref 0 in
  let twin_ns = ref 0 in
  let t0 = now () in
  for i = 0 to k - 1 do
    let p = x.points.(i) in
    let pid = Trace.fresh spans in
    let p0 = now () in
    let exec_once ~measure ~name probe_for =
      let c0 = now () in
      let r =
        try
          let m = Machine.create_with x.configs.(i) in
          let c1 = now () in
          Trace.add spans ~point:i ~parent:pid "machine.create" c0 c1;
          Option.iter
            (fun a -> Annot.record a x.programs.(i))
            (Machine.annotations m);
          let a1 = now () in
          Trace.add spans ~point:i ~parent:pid "analysis.annot" c1 a1;
          let eid = Trace.fresh spans in
          let probe = probe_for eid in
          let tl = Telemetry.create ~sink:(Trace.sink probe) () in
          let opts = Machine.Run_opts.make ~fuel ~measure ~telemetry:tl () in
          let e0 = now () in
          Trace.start probe e0;
          let r =
            try
              Ok
                (Machine.exec_program ~opts m ~program:x.programs.(i)
                   ~input:x.args.(i))
            with e -> Error e
          in
          let e1 = now () in
          Trace.finish probe
            ~completed:
              (match r with
              | Ok { Machine.outcome = Machine.Done _; _ } -> true
              | _ -> false)
            e1;
          Trace.record spans ~id:eid ~point:i ~parent:pid name e0 e1;
          Ok (r, probe, tl, e1 - e0)
        with e -> Error e
      in
      (r, now () - c0)
    in
    let main, _ =
      exec_once ~measure:p.models ~name:"machine.exec" (fun eid ->
          Trace.probe ~every_step:(is_heavy p.models) plain
            ~on_collect:(fun s e ->
              Trace.add spans ~point:i ~parent:eid "gc.collect" s e))
    in
    (match main with
    | Ok (r, probe, tl, ns) ->
        t_outcomes.(i) <- outcome_of r;
        attempts.(i) <- probe.Trace.attempts;
        collect_ns := !collect_ns + probe.Trace.collect_ns;
        exec_ns := !exec_ns + ns;
        summaries := Telemetry.summary tl :: !summaries;
        if is_heavy p.models then begin
          let twin, whole =
            exec_once ~measure:[ Space_model.Flat ]
              ~name:"machine.exec.flat-twin" (fun _ ->
                Trace.probe ~every_step:false twin_plain)
          in
          twin_ns := !twin_ns + whole;
          match twin with
          | Ok (r, _, _, twin_exec) ->
              twins.(i) <- Some (outcome_of r);
              heavy_exec_ns := !heavy_exec_ns + ns;
              heavy_diff_ns := !heavy_diff_ns + (ns - twin_exec);
              heavy_steps := !heavy_steps + t_outcomes.(i).steps
          | Error e -> twins.(i) <- Some (crashed e)
        end
    | Error e -> t_outcomes.(i) <- crashed e);
    Trace.record spans ~id:pid ~point:i
      ~attrs:
        [
          ("label", Json.Str p.label);
          ("variant", Json.Str (Machine.variant_name p.variant));
          ("n", Json.Int p.n);
        ]
      "point" p0 (now ())
  done;
  {
    t_ns = now () - t0;
    t_outcomes;
    attempts;
    twins;
    summary = Telemetry.merge_summaries !summaries;
    plain;
    collect_ns = !collect_ns;
    exec_ns = !exec_ns;
    heavy_exec_ns = !heavy_exec_ns;
    heavy_diff_ns = !heavy_diff_ns;
    heavy_steps = !heavy_steps;
    twin_ns = !twin_ns;
    spans;
  }

(* {1 A run} *)

type report = {
  workload : W.t;
  seed : int;
  passes : int;
  pass_ns : int list;
  samples : int;
  attempted : int;
  failed : int;
  correct : bool;
  end_to_end : (Metrics.spec * float) list;
  per_layer : (Metrics.spec * float) list;  (** empty when untraced *)
  rows : (string * float) list;  (** row label, us/step *)
  points : Record.t list;
  problems : string list;
}

let host_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let answer_text = function Ok a -> a | Error m -> "error: " ^ m

let to_record (p : W.point) (o : outcome) ~attempts =
  {
    Record.label = p.label;
    variant = Machine.variant_name p.variant;
    n = p.n;
    models = List.map Space_model.name p.models;
    steps = o.steps;
    peaks = List.map (fun (m, v) -> (Space_model.name m, v)) o.peaks;
    gc_runs = o.gc_runs;
    attempts;
    answer = answer_text o.answer;
  }

let prepare (points : W.point array) =
  let _, by_source = setup_once points in
  let programs =
    Array.map (fun (p : W.point) -> Hashtbl.find by_source p.source) points
  in
  {
    points;
    programs;
    args = Array.map (fun (p : W.point) -> input p.n) points;
    configs = Array.map config points;
    opts =
      Array.map
        (fun (p : W.point) -> Machine.Run_opts.make ~fuel ~measure:p.models ())
        points;
  }

(* Set-up is about a millisecond, so it is repeated, in bursts of
   [burst] between calibration slices, each set-up scaled by the median
   of its burst's slices. All of them run before the timed passes, on a
   heap that holds only the prepared inputs: after the passes, the live
   heap they leave behind would decide how much major-collection work
   lands in a set-up. *)
let burst = 4
let setups = 24

let setup_burst points =
  let first = Calib.slice () in
  let runs =
    List.init burst (fun _ ->
        Gc.minor ();
        let s, _ = setup_once points in
        (s, Calib.slice ()))
  in
  let slices = List.map float (first :: List.map snd runs) in
  let scale = Calib.nominal_ns /. Stats.median slices in
  List.map (fun (s, _) -> (s, scale)) runs

let measure_setups points =
  Gc.full_major ();
  List.concat (List.init (setups / burst) (fun _ -> setup_burst points))

let scaled_median f su = Stats.median (List.map (fun (s, c) -> float (f s) *. c) su)

(* The per-layer metrics of a traced run. *)
let layer_metrics ~problem su t ~median_pass ~rows =
  let self = Trace.self_ns_by_name t.spans in
  let layers =
    [
      "machine.create";
      "analysis.annot";
      "machine.exec";
      "gc.collect";
      "machine.exec.flat-twin";
    ]
  in
  let coverage = float (sum (List.map self layers)) /. float t.t_ns in
  if Float.abs (coverage -. 1.) > 0.05 then
    problem
      (Printf.sprintf "traced self times cover %.3f of the traced pass" coverage);
  let plain p = float (Option.value (Stats.Hist.percentile t.plain ~p) ~default:0) in
  let attempts = Array.fold_left ( + ) 0 t.attempts in
  let reclaiming = Array.fold_left (fun a o -> a + o.gc_runs) 0 t.t_outcomes in
  let ratio a b = if b = 0 then 0. else float a /. float b in
  let median_of f = scaled_median f su /. 1e6 in
  let creates =
    List.concat_map (fun (s, c) -> List.map (fun ns -> float ns *. c) s.creates) su
  in
  Metrics.collect Metrics.per_layer
    ([
       ("sexp.parse_ms", median_of (fun s -> s.parse));
       ("expander.expand_ms", median_of (fun s -> s.expand));
       ("expander.nodes", float (fst (List.hd su)).nodes);
       ("analysis.annot_ms", median_of (fun s -> s.annot));
       ("machine.create_ms", Stats.median creates /. 1e6);
       ("machine.steps", float t.summary.steps);
       ("machine.alloc_words", float t.summary.alloc_words);
       ("machine.store_hwm", float t.summary.store_hwm);
       ("machine.max_cont_depth", float t.summary.max_cont_depth);
       ("machine.plain_step_ns.p50", plain 50.);
       ("machine.plain_step_ns.p99", plain 99.);
       ("gc.attempts", float attempts);
       ("gc.reclaiming", float reclaiming);
       ("gc.useful_ratio", ratio reclaiming attempts);
       ("gc.freed", float t.summary.gc_freed);
       ("gc.step_share", ratio t.collect_ns t.exec_ns);
       ( "gc.us_per_attempt",
         if attempts = 0 then 0.
         else (us_of t.collect_ns -. (float attempts *. plain 50. /. 1e3)) /. float attempts );
       ( "space.heavy_us_per_step",
         if t.heavy_steps = 0 then 0. else us_of t.heavy_diff_ns /. float t.heavy_steps );
       ("space.heavy_share", ratio t.heavy_diff_ns t.heavy_exec_ns);
       ("trace.overhead", float (t.t_ns - t.twin_ns) /. median_pass);
       ("trace.pass_s", s_of t.t_ns);
       ("trace.self_coverage", coverage);
     ]
    @ List.mapi (fun i (_, v) -> (Metrics.row_name i, v)) rows
    @ List.map (fun l -> ("self_s." ^ l, s_of (self l))) layers)

let min_passes k = max 3 ((100 + k - 1) / k)

let run ?points ?expected ?spans_file ~seconds ~trace (w : W.t) ~seed =
  let points = match points with Some p -> p | None -> W.generate w ~seed in
  let k = Array.length points in
  let x = prepare points in
  let refs = Array.mapi (fun i p -> reference p x.programs.(i)) points in
  let su = measure_setups points in
  let start = now () in
  let rec loop acc n =
    if n >= min_passes k && s_of (now () - start) >= seconds then List.rev acc
    else loop (timed_pass x :: acc) (n + 1)
  in
  let passes = loop [] 0 in
  let rss = host_rss_mb () in
  let traced = if trace then Some (traced_pass x) else None in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let first = List.hd passes in
  (* every outcome of point i, timed and traced *)
  let outcomes i =
    List.map (fun ps -> ps.outcomes.(i)) passes
    @ match traced with Some t -> [ t.t_outcomes.(i) ] | None -> []
  in
  let records =
    Array.mapi
      (fun i p ->
        to_record p first.outcomes.(i)
          ~attempts:(Option.map (fun t -> t.attempts.(i)) traced))
      points
  in
  let answers_ok =
    Array.mapi
      (fun i (p : W.point) ->
        match refs.(i) with
        | None ->
            problem "%s n=%d: no reference answer" p.label p.n;
            false
        | Some r ->
            let ok = List.for_all (fun o -> o.answer = Ok r) (outcomes i) in
            if not ok then
              problem "%s n=%d: answer %s, reference %s" p.label p.n
                (answer_text first.outcomes.(i).answer)
                r;
            ok)
      points
  in
  let exact =
    Array.mapi
      (fun i (p : W.point) ->
        let os = outcomes i in
        let stable = List.for_all (same_figures (List.hd os)) os in
        if not stable then problem "%s n=%d: figures differ between passes" p.label p.n;
        let laws = log_laws first.outcomes.(i).peaks in
        if not laws then problem "%s n=%d: space-model laws fail" p.label p.n;
        let twin =
          match Option.bind traced (fun t -> t.twins.(i)) with
          | Some tw ->
              let o = first.outcomes.(i) in
              let ok =
                tw.steps = o.steps
                && List.assoc_opt Space_model.Flat tw.peaks
                   = List.assoc_opt Space_model.Flat o.peaks
              in
              if not ok then problem "%s n=%d: flat twin disagrees" p.label p.n;
              ok
          | None -> true
        in
        let recorded =
          match expected with
          | None -> true
          | Some (Error m) ->
              if i = 0 then problem "expected outputs: %s" m;
              false
          | Some (Ok exp) -> (
              match List.nth_opt exp i with
              | None ->
                  problem "%s n=%d: not in the expected outputs" p.label p.n;
                  false
              | Some e -> (
                  match Record.diff ~expected:e ~actual:records.(i) with
                  | [] -> true
                  | d ->
                      problem "%s n=%d: differs from expected in %s" p.label
                        p.n (String.concat ", " d);
                      false))
        in
        stable && laws && twin && recorded)
      points
  in
  let attempted = List.length passes * k in
  let failed =
    List.fold_left
      (fun acc ps ->
        acc
        + Array.fold_left
            (fun a o -> if Result.is_error o.answer then a + 1 else a)
            0 ps.outcomes)
      0 passes
  in
  let share flags =
    float (Array.fold_left (fun a b -> if b then a + 1 else a) 0 flags)
    /. float k
  in
  let pass_ns = List.map (fun ps -> ps.ns) passes in
  let median_pass =
    Stats.median (List.map (fun ps -> Array.fold_left ( +. ) 0. ps.scaled) passes)
  in
  let steps_per_pass = Array.fold_left (fun a o -> a + o.steps) 0 first.outcomes in
  let samples =
    Array.concat (List.map (fun ps -> Array.map (fun ns -> ns /. 1e6) ps.scaled) passes)
  in
  let pct p =
    match Stats.percentile ~p samples with Ok v -> v | Error m -> failwith m
  in
  let end_to_end =
    Metrics.collect Metrics.end_to_end
      [
        ("setup_s", scaled_median (fun s -> s.total) su /. 1e9);
        ("wall_s", median_pass /. 1e9);
        ("steps_per_s", float steps_per_pass /. (median_pass /. 1e9));
        ("point_ms.p50", pct 50.);
        ("point_ms.p90", pct 90.);
        ("host_rss_mb", rss);
        ("answers_ok", share answers_ok);
        ("peaks_exact", share exact);
        ("completed_frac", 1. -. (float failed /. float attempted));
      ]
  in
  let row_labels = W.rows w in
  let rows =
    List.map
      (fun r ->
        let per_pass =
          List.filter_map
            (fun ps ->
              let ns = ref 0. and steps = ref 0 in
              Array.iteri
                (fun i (p : W.point) ->
                  if p.row = r then begin
                    ns := !ns +. ps.scaled.(i);
                    steps := !steps + ps.outcomes.(i).steps
                  end)
                points;
              if !steps = 0 then None else Some (!ns /. float !steps /. 1e3))
            passes
        in
        (r, if per_pass = [] then 0. else Stats.median per_pass))
      row_labels
  in
  let per_layer =
    match traced with
    | None -> []
    | Some t ->
        Option.iter (fun path -> Trace.write t.spans path) spans_file;
        layer_metrics ~problem:(problem "%s") su t
          ~median_pass:(median_int pass_ns) ~rows
  in
  let answers = share answers_ok and exact_share = share exact in
  {
    workload = w;
    seed;
    passes = List.length passes;
    pass_ns;
    samples = Array.length samples;
    attempted;
    failed;
    correct = answers = 1. && exact_share = 1. && failed = 0;
    end_to_end;
    per_layer;
    rows;
    points = Array.to_list records;
    problems = List.rev !problems;
  }
