(* schemesim — run Scheme programs on the paper's reference machines.

   subcommands:
     run         run a file, an expression or a corpus entry once on a
                 chosen variant, reporting the answer and the measured
                 space consumption; --json, --csv and --events add the
                 telemetry summary, the space-over-time profile and the
                 event stream
     bench       sweep a program over several inputs, tabulating space
     analyze     static tail-call statistics (Figure 2) for a file
     corpus      list the shipped corpus
     report      print the paper-reproduction experiment tables
     spaceprof   space-provenance profiler: per-site heap census at the
                 peak, flamegraph export, and per-variant census diffs

   run, bench and spaceprof take their program the same way: FILE, -e
   EXPR or --corpus NAME.

   exit codes (uniform across subcommands, documented in README):
     0  the program ran to completion (Done)
     1  program-level failure: stuck, out of fuel, or a failed sweep
        point
     2  usage error: bad flags, unreadable/unparsable source, unwritable
        output file, unknown corpus entry or experiment *)

open Cmdliner
module M = Tailspace_core.Machine
module SM = Tailspace_core.Space_model
module Expand = Tailspace_expander.Expand
module Reader = Tailspace_sexp.Reader
module TC = Tailspace_analysis.Tail_calls
module X = Tailspace_harness.Experiments
module R = Tailspace_harness.Runner
module Table = Tailspace_harness.Table
module Corpus = Tailspace_corpus.Corpus
module Tel = Tailspace_telemetry.Telemetry
module Json = Tailspace_telemetry.Telemetry.Json
module Res = Tailspace_resilience.Resilience
module Pool = Tailspace_parallel.Pool
module Ast = Tailspace_ast.Ast
module Census = Tailspace_core.Census
module Prov = Tailspace_provenance.Provenance

let usage m =
  Format.eprintf "schemesim: %s@." m;
  exit 2

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* An output file that cannot be opened is a usage error, as an
   unreadable source is. *)
let open_output path = try open_out path with Sys_error m -> usage m

(* JSON pieces shared by [run --json] and [bench --json]. *)

let peaks_json peaks =
  Json.Obj (List.map (fun (m, p) -> (SM.name m, Json.Int p)) peaks)

let outcome_name = function
  | M.Done _ -> "done"
  | M.Stuck _ -> "stuck"
  | M.Aborted _ -> "aborted"

let stuck_trace_json tl =
  Json.List
    (List.map
       (fun (step, config) ->
         Json.Obj [ ("step", Json.Int step); ("config", Json.Str config) ])
       (Tel.ring_contents tl))

(* The summary object: run-level facts first, then the telemetry
   summary's fields spliced in at top level (steps, gc_runs,
   allocations, max_cont_depth, peak_space, peak_linked, ...), then the
   ring-buffer trace when the run got stuck. *)
let result_json ~program_name ~variant (result : M.result) tl =
  let summary_fields =
    match Tel.summary_to_json (Tel.summary tl) with
    | Json.Obj fields -> fields
    | _ -> []
  in
  let answer =
    match result.M.outcome with
    | M.Done { answer; _ } -> Json.Str answer
    | _ -> Json.Null
  in
  let error =
    match result.M.outcome with
    | M.Stuck m -> Json.Str m
    | M.Aborted { reason; _ } -> Json.Str (Res.abort_reason_message reason)
    | M.Done _ -> Json.Null
  in
  let abort =
    match result.M.outcome with
    | M.Aborted { reason; _ } -> Res.abort_reason_to_json reason
    | _ -> Json.Null
  in
  Json.Obj
    ([
       ("program", Json.Str program_name);
       ("variant", Json.Str (M.variant_name variant));
       ("outcome", Json.Str (outcome_name result.M.outcome));
       ("exit_code",
        Json.Int (match result.M.outcome with M.Done _ -> 0 | _ -> 1));
       ("answer", answer);
       ("error", error);
       ("abort", abort);
       ("program_size", Json.Int result.M.program_size);
       ("space_consumption", Json.Int (M.space_consumption result));
       ("peaks", peaks_json result.M.peaks);
     ]
    @ summary_fields
    @
    match result.M.outcome with
    | M.Stuck _ -> [ ("stuck_trace", stuck_trace_json tl) ]
    | _ -> [])

let print_stuck_trace tl =
  match Tel.ring_contents tl with
  | [] -> ()
  | trace ->
      Format.printf "; last %d configurations before the stuck state:@."
        (List.length trace);
      List.iter
        (fun (step, config) -> Format.printf ";   %6d %s@." step config)
        trace

(* ------------------------------------------------------------------ *)
(* shared options                                                      *)

let variant_conv =
  let parse s =
    match M.variant_of_name s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown variant %S (expected %s)" s
               (String.concat "|" (List.map M.variant_name M.all_variants))))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (M.variant_name v))

let variant_arg =
  let doc =
    "Reference machine: tail (properly tail recursive, default), gc \
     (improper), stack (Algol-like deletion), evlis, free, or sfs \
     (safe-for-space)."
  in
  Arg.(value & opt variant_conv M.Tail & info [ "v"; "variant" ] ~docv:"VARIANT" ~doc)

let perm_arg =
  let cv =
    let parse = function
      | "ltr" -> Ok M.Left_to_right
      | "rtl" -> Ok M.Right_to_left
      | s -> (
          match int_of_string_opt s with
          | Some seed -> Ok (M.Seeded seed)
          | None -> Error (`Msg "expected ltr, rtl, or an integer seed"))
    in
    let print ppf = function
      | M.Left_to_right -> Format.pp_print_string ppf "ltr"
      | M.Right_to_left -> Format.pp_print_string ppf "rtl"
      | M.Seeded s -> Format.fprintf ppf "%d" s
    in
    Arg.conv (parse, print)
  in
  let doc = "Argument evaluation order: ltr, rtl, or an integer seed." in
  Arg.(value & opt cv M.Left_to_right & info [ "perm" ] ~docv:"ORDER" ~doc)

let stack_policy_arg =
  let cv =
    let parse = function
      | "algol" -> Ok M.Algol
      | "safe" -> Ok M.Safe_deletion
      | _ -> Error (`Msg "expected algol or safe")
    in
    let print ppf = function
      | M.Algol -> Format.pp_print_string ppf "algol"
      | M.Safe_deletion -> Format.pp_print_string ppf "safe"
    in
    Arg.conv (parse, print)
  in
  let doc =
    "I_stack deletion policy: algol (delete everything, stuck on dangling \
     pointers) or safe (delete the maximal safe subset, default)."
  in
  Arg.(value & opt cv M.Safe_deletion & info [ "stack-policy" ] ~docv:"POLICY" ~doc)

(* The header's exit-code contract, as every command's --help shows it. *)
let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"the program ran to completion.";
      info 1
        ~doc:
          "the program got stuck or ran out of fuel, or a sweep point \
           failed.";
      info 2
        ~doc:
          "usage error: bad flags, unreadable or unparsable source, \
           unwritable output file, unknown corpus entry or experiment.";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

let fuel_arg =
  let doc = "Maximum number of machine steps." in
  Arg.(value & opt int 20_000_000 & info [ "fuel" ] ~docv:"STEPS" ~doc)

let model_conv =
  let parse s =
    match SM.of_name (String.lowercase_ascii (String.trim s)) with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown space model %S (expected %s)" s
               (String.concat "|" (List.map SM.name SM.all))))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (SM.name m))

let model_arg =
  let doc =
    "Extra space models to measure, comma-separated: flat (Figure 7, always \
     measured), linked (Figure 8's dedup'd bindings), log (pointer-size \
     accounting — every linked unit at ceil(log2 |store|) bits)."
  in
  Arg.(value & opt (list model_conv) [] & info [ "model" ] ~docv:"MODELS" ~doc)

(* "; linked peak=... U=|P|+peak=..." / "; log peak=... Log=|P|+peak=..."
   footer lines of the plain-text reports, one per heavy model measured,
   like the flat line's "peak=... S=|P|+peak=...": the peak is the
   configuration's, and Definition 23 adds the program term, |P| words,
   or word-size bits under Log. *)
let print_heavy_peaks ~program_size peaks =
  List.iter
    (fun ((model : SM.t), p) ->
      match model with
      | SM.Flat -> ()
      | SM.Linked ->
          Format.printf "; linked peak=%d U=|P|+peak=%d@." p (p + program_size)
      | SM.Log ->
          Format.printf "; log peak=%d bits Log=|P|+peak=%d bits@." p
            (p + (SM.word_bits * program_size)))
    peaks

let trace_arg =
  let doc = "Print a one-line description of the first $(docv) machine steps." in
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"STEPS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the measurement sweep (default: available cores minus \
     one; 1 forces the serial path). Sweep points are independent, so the \
     output is byte-identical whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)
(* the program: FILE, -e or --corpus                                   *)

let file_pos_arg =
  let doc = "Scheme source file (use - for stdin)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let expr_arg =
  let doc = "Evaluate an inline program instead of a file." in
  Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"PROGRAM" ~doc)

let corpus_arg =
  let doc =
    "Use a shipped corpus entry (see $(b,schemesim corpus)) instead of a \
     file; where the command takes $(b,--input), the entry's first checked \
     input is its default."
  in
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"NAME" ~doc)

let input_arg =
  let doc =
    "Treat the program as §12's procedure-of-one-argument and apply it to \
     this integer."
  in
  Arg.(value & opt (some int) None & info [ "n"; "input" ] ~docv:"N" ~doc)

(* A loaded program: its display name, its text and expansion, and the
   input a corpus entry is first checked at. *)
type source = {
  name : string;
  text : string;
  program : Ast.expr;
  checked_n : int option;
}

let load_source corpus file expr =
  match corpus with
  | Some name -> (
      match Corpus.find name with
      | None -> usage (Printf.sprintf "unknown corpus entry %S" name)
      | Some e ->
          let checked_n =
            match e.Corpus.checks with (n, _) :: _ -> Some n | [] -> None
          in
          { name; text = e.Corpus.source; program = Corpus.program e; checked_n })
  | None -> (
      let name, text =
        match (file, expr) with
        | _, Some e -> ("<expr>", e)
        | Some "-", None -> ("<stdin>", In_channel.input_all stdin)
        | Some f, None -> (f, try read_file f with Sys_error m -> usage m)
        | None, None -> usage "expected a FILE argument, --expr or --corpus"
      in
      match Expand.program_of_string text with
      | exception Reader.Parse_error e ->
          usage (Format.asprintf "%a" Reader.pp_error e)
      | exception Expand.Expand_error e ->
          usage (Format.asprintf "%a" Expand.pp_error e)
      | program -> { name; text; program; checked_n = None })

let source_arg = Term.(const load_source $ corpus_arg $ file_pos_arg $ expr_arg)

(* The input to apply the program to: [-n] when given, else a corpus
   entry's first checked input. *)
let input_of (src : source) input =
  match input with None -> src.checked_n | Some _ -> input

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let json_arg =
    let doc =
      "Print a single JSON object (answer, space, telemetry summary, and the \
       ring-buffer trace when stuck) instead of the plain-text report; the \
       program's own output goes to stderr."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let ring_arg =
    let doc =
      "Keep the last $(docv) configurations in a ring buffer, dumped when the \
       machine gets stuck (0 disables it). A configuration is described \
       only if the buffer is dumped while it still holds it."
    in
    Arg.(value & opt int 16 & info [ "ring" ] ~docv:"K" ~doc)
  in
  let csv_arg =
    let doc =
      "Write the space-over-time profile to $(docv) as step,space CSV (one \
       sample per step; the stride doubles whenever the sample buffer \
       fills)."
    in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let events_arg =
    let doc =
      "Stream every telemetry event (steps, continuation pushes/pops, \
       allocations, collections) to $(docv) as JSON lines."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let run (src : source) input variant perm stack_policy fuel measure
      trace_steps json ring csv events =
    (* Both outputs are opened before the run, so an unwritable path is
       a usage error that costs no run. *)
    let events_channel = Option.map open_output events in
    let csv =
      Option.map
        (fun path -> (path, open_output path, Tel.Profile.create ()))
        csv
    in
    let sink =
      Option.map
        (fun oc ->
          Tel.jsonl_sink (fun line ->
              output_string oc line;
              output_char oc '\n'))
        events_channel
    in
    let config_sink =
      if trace_steps <= 0 then None
      else
        Some
          (fun step description ->
            if step < trace_steps then
              Format.printf "; %6d %s@." step description)
    in
    let profile = Option.map (fun (_, _, prof) -> prof) csv in
    let telemetry = Tel.create ?sink ?config_sink ~ring ?profile () in
    let opts = M.Run_opts.make ~fuel ~measure ~telemetry () in
    let t = M.create_with (M.Config.make ~variant ~perm ~stack_policy ()) in
    let result =
      Fun.protect
        ~finally:(fun () -> Option.iter close_out events_channel)
        (fun () ->
          match input_of src input with
          | Some n ->
              M.exec_program ~opts t ~program:src.program
                ~input:(R.input_expr n)
          | None -> M.exec ~opts t src.program)
    in
    Option.iter
      (fun (path, oc, prof) ->
        output_string oc (Tel.Profile.to_csv prof);
        close_out oc;
        Format.eprintf "; space profile (%d samples, stride %d) -> %s@."
          (List.length (Tel.Profile.samples prof))
          (Tel.Profile.stride prof) path)
      csv;
    if json then begin
      if result.M.output <> "" then prerr_string result.M.output;
      print_endline
        (Json.to_string
           (result_json ~program_name:src.name ~variant result telemetry))
    end
    else begin
      if result.M.output <> "" then print_string result.M.output;
      (match result.M.outcome with
      | M.Done { answer; _ } -> Format.printf "%s@." answer
      | M.Stuck m ->
          Format.printf "stuck: %s@." m;
          print_stuck_trace telemetry
      | M.Aborted { reason; _ } ->
          Format.printf "aborted: %s@." (Res.abort_reason_message reason));
      Format.printf
        "; variant=%s steps=%d |P|=%d peak=%d S=|P|+peak=%d gc-runs=%d@."
        (M.variant_name variant) result.M.steps result.M.program_size
        (M.peak_space result)
        (M.space_consumption result)
        result.M.gc_runs;
      print_heavy_peaks ~program_size:result.M.program_size result.M.peaks
    end;
    match result.M.outcome with M.Done _ -> () | _ -> exit 1
  in
  let doc =
    "Run a Scheme program once on a reference machine and measure its space; \
     optionally write its space profile and event stream."
  in
  Cmd.v (Cmd.info "run" ~exits ~doc)
    Term.(
      const run $ source_arg $ input_arg $ variant_arg $ perm_arg
      $ stack_policy_arg $ fuel_arg $ model_arg $ trace_arg $ json_arg
      $ ring_arg $ csv_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)

let bench_cmd =
  let ns_arg =
    let doc = "Comma-separated input sizes to sweep." in
    Arg.(value & opt (list int) [ 10; 100; 1000 ] & info [ "ns" ] ~docv:"N,..." ~doc)
  in
  let json_arg =
    let doc =
      "Print the sweep as a JSON array (one object per input, telemetry \
       summary included) instead of an ASCII table."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let status_json (s : R.status) =
    match s with
    | R.Answer _ -> Json.Str "done"
    | R.Stuck _ -> Json.Str "stuck"
    | R.Aborted r -> Json.Str ("aborted:" ^ Res.abort_reason_name r)
  in
  let measurement_json name variant (m : R.measurement) =
    Json.Obj
      ([
         ("program", Json.Str name);
         ("variant", Json.Str (M.variant_name variant));
         ("n", Json.Int m.R.n);
         ("space_consumption", Json.Int m.R.space);
         ("peaks", peaks_json m.R.peaks);
         ( "space_consumption_by_model",
           Json.Obj
             (List.filter_map
                (fun model ->
                  Option.map
                    (fun c -> (SM.name model, Json.Int c))
                    (R.consumption m model))
                SM.all) );
         ("status", status_json m.R.status);
         ( "abort",
           match m.R.status with
           | R.Aborted r -> Res.abort_reason_to_json r
           | _ -> Json.Null );
         ( "answer",
           match m.R.status with
           | R.Answer a -> Json.Str a
           | _ -> Json.Null );
       ]
      @
      match m.R.summary with
      | Some s -> (
          match Tel.summary_to_json s with Json.Obj fs -> fs | _ -> [])
      | None -> [])
  in
  let bench (src : source) ns variant perm stack_policy fuel measure json
      jobs =
    let config = M.Config.make ~variant ~perm ~stack_policy () in
    let ms =
      Pool.with_pool ?jobs (fun pool ->
          R.sweep ?pool ~collect_telemetry:true
            (R.point ~config ~models:measure ~fuel src.text)
            ns)
    in
    if json then
      print_endline
        (Json.to_string
           (Json.List (List.map (measurement_json src.name variant) ms)))
    else begin
      Format.printf "%s(n) under %s:@." src.name (M.variant_name variant);
      print_string (Table.measurements ms)
    end;
    if not (R.all_answered ms) then exit 1
  in
  let doc =
    "Sweep a program over several inputs, reporting space consumption, GC \
     activity, and telemetry per input."
  in
  Cmd.v (Cmd.info "bench" ~exits ~doc)
    Term.(
      const bench $ source_arg $ ns_arg $ variant_arg $ perm_arg
      $ stack_policy_arg $ fuel_arg $ model_arg $ json_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_cmd =
  let file_arg =
    let doc = "Scheme source file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let analyze file =
    match TC.analyze_source (read_file file) with
    | exception Reader.Parse_error e ->
        Format.eprintf "schemesim: %a@." Reader.pp_error e;
        exit 2
    | exception Expand.Expand_error e ->
        Format.eprintf "schemesim: %a@." Expand.pp_error e;
        exit 2
    | c ->
        Format.printf "calls:           %d@." c.TC.calls;
        Format.printf "tail calls:      %d (%.1f%%)@." c.TC.tail_calls
          (TC.percent c.TC.tail_calls c.TC.calls);
        Format.printf "self-tail calls: %d (%.1f%%)@." c.TC.self_tail_calls
          (TC.percent c.TC.self_tail_calls c.TC.calls);
        Format.printf "known calls:     %d (%.1f%%)@." c.TC.known_calls
          (TC.percent c.TC.known_calls c.TC.calls)
  in
  let doc = "Static tail-call statistics (the Figure 2 measurement)." in
  Cmd.v (Cmd.info "analyze" ~exits ~doc) Term.(const analyze $ file_arg)

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)

let corpus_cmd =
  let corpus () =
    List.iter
      (fun (e : Corpus.entry) ->
        Format.printf "%-18s %s@." e.Corpus.name e.Corpus.description)
      Corpus.all
  in
  let doc =
    "List the shipped Scheme corpus; $(b,run --corpus NAME) runs an entry."
  in
  Cmd.v (Cmd.info "corpus" ~exits ~doc) Term.(const corpus $ const ())

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let report_cmd =
  let which_arg =
    let doc =
      "Experiment to reproduce: fig2, thm24, thm25, thm26, sec4, cor20, cps, \
       ablation, sanity, loghier, or all (default)."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let report which jobs =
    let names =
      if which = "all" then X.names
      else if List.mem which X.names then [ which ]
      else usage (Printf.sprintf "unknown experiment %S" which)
    in
    print_string (Pool.with_pool ?jobs (fun pool -> X.report ?pool names))
  in
  let doc = "Print the paper-reproduction tables (see DESIGN.md)." in
  Cmd.v (Cmd.info "report" ~exits ~doc)
    Term.(const report $ which_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* spaceprof                                                           *)

(* The space-provenance profiler: run once with a census attached, then
   decompose the measured peak into per-allocation-site live words. The
   census is rebuilt from the exact peak configuration, so its rows sum
   to the telemetry peak by construction — the sum is still re-checked
   here and a mismatch is a reportable bug (exit 1), never silently
   truncated output. *)
let spaceprof_cmd =
  let json_arg =
    let doc =
      "Print the census as one JSON object (rows, flamegraph stacks, and \
       labels; the linked and log censuses too with --model) instead of \
       tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let flamegraph_arg =
    let doc =
      "Write collapsed-stack lines (site;site;... words) to $(docv) — the \
       input format of flamegraph.pl and speedscope. Lines sum exactly to \
       the flat peak. Not with $(b,--diff)."
    in
    Arg.(
      value & opt (some string) None & info [ "flamegraph" ] ~docv:"FILE" ~doc)
  in
  let diff_arg =
    let doc =
      "Profile the program under two variants and print the per-site word \
       delta table (largest absolute delta first) instead of a single \
       census: --diff tail,stack surfaces where I_stack parks the words \
       I_tail reclaims."
    in
    Arg.(
      value
      & opt (some (pair variant_conv variant_conv)) None
      & info [ "diff" ] ~docv:"VARIANT_A,VARIANT_B" ~doc)
  in
  let top_arg =
    let doc = "Show only the $(docv) largest rows per table (0 = all)." in
    Arg.(value & opt int 0 & info [ "top" ] ~docv:"K" ~doc)
  in
  let spaceprof (src : source) input variant fuel measure json flamegraph diff
      top =
    let name = src.name and program = src.program in
    let n =
      match input_of src input with
      | Some n -> n
      | None ->
          usage
            "spaceprof needs --input N (the program runs under §12's \
             procedure-of-one-argument convention)"
    in
    (* Opened before the run, as [run] opens its outputs, so an
       unwritable path is a usage error that costs no run. *)
    let flamegraph =
      match (flamegraph, diff) with
      | Some _, Some _ -> usage "--flamegraph exports one census, not a --diff"
      | Some path, None -> Some (path, open_output path)
      | None, _ -> None
    in
    (* One profiled run: census attached through Run_opts, raw per-model
       peaks recovered from the measurement's [peaks] list (no |P| term
       — the census decomposes the store peak, not the consumption). *)
    let census_run variant =
      let census = Census.create () in
      let opts = M.Run_opts.make ~fuel ~measure ~provenance:census () in
      let m =
        R.run_once ~opts ~config:(M.Config.make ~variant ()) ~program ~n ()
      in
      let flat = Census.flat_census census ~peak:(R.peak_space m) in
      let linked_c =
        match R.peak_linked m with
        | Some u -> Census.linked_census census ~peak:u
        | None -> None
      in
      let log_c =
        match R.peak_log m with
        | Some l -> Census.log_census census ~peak:l
        | None -> None
      in
      (m, flat, linked_c, log_c)
    in
    let check_sums what = function
      | None -> ()
      | Some (c : Prov.t) ->
          let rows = Prov.total c in
          if rows <> c.Prov.peak then begin
            Format.eprintf
              "schemesim: INTERNAL %s census rows sum to %d, peak is %d@."
              what rows c.Prov.peak;
            exit 1
          end;
          let stack_sum =
            List.fold_left (fun a (s : Prov.stack) -> a + s.Prov.swords) 0
              c.Prov.stacks
          in
          if c.Prov.stacks <> [] && stack_sum <> c.Prov.peak then begin
            Format.eprintf
              "schemesim: INTERNAL %s flamegraph stacks sum to %d, peak is \
               %d@."
              what stack_sum c.Prov.peak;
            exit 1
          end
    in
    let status_line variant (m : R.measurement) =
      Format.printf "; %s(%d) under %s (stepper): S=%d peak=%d steps=%d%s%s@."
        name n (M.variant_name variant) m.R.space
        (R.peak_space m) m.R.steps
        (match R.consumption m SM.Linked with
        | Some u -> Printf.sprintf " U=%d" u
        | None -> "")
        (match R.consumption m SM.Log with
        | Some l -> Printf.sprintf " Log=%d bits" l
        | None -> "")
    in
    let failed (m : R.measurement) =
      match m.R.status with
      | R.Answer _ -> false
      | R.Stuck msg ->
          Format.eprintf "schemesim: run got stuck: %s@." msg;
          true
      | R.Aborted r ->
          Format.eprintf "schemesim: run aborted: %s@."
            (Res.abort_reason_message r);
          true
    in
    let truncate_rows (c : Prov.t) =
      if top <= 0 then c
      else
        {
          c with
          Prov.rows =
            List.filteri (fun i (_ : Prov.row) -> i < top) c.Prov.rows;
        }
    in
    match diff with
    | Some (va, vb) ->
        let ma, fa, la, ga = census_run va and mb, fb, lb, gb = census_run vb in
        check_sums (M.variant_name va) fa;
        check_sums (M.variant_name vb) fb;
        check_sums (M.variant_name va ^ " linked") la;
        check_sums (M.variant_name vb ^ " linked") lb;
        check_sums (M.variant_name va ^ " log") ga;
        check_sums (M.variant_name vb ^ " log") gb;
        (match (fa, fb) with
        | Some ca, Some cb ->
            let deltas = Prov.diff ca cb in
            let deltas =
              if top <= 0 then deltas
              else List.filteri (fun i (_ : Prov.delta) -> i < top) deltas
            in
            if json then
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("program", Json.Str name);
                        ("n", Json.Int n);
                        ("variant_a", Json.Str (M.variant_name va));
                        ("variant_b", Json.Str (M.variant_name vb));
                        ("census_a", Prov.to_json ca);
                        ("census_b", Prov.to_json cb);
                        ( "deltas",
                          Json.List
                            (List.map
                               (fun (d : Prov.delta) ->
                                 Json.Obj
                                   [
                                     ("site", Json.Int d.Prov.dsite);
                                     ( "phase",
                                       Json.Str (Prov.phase_name d.Prov.dphase)
                                     );
                                     ("words_a", Json.Int d.Prov.words_a);
                                     ("words_b", Json.Int d.Prov.words_b);
                                     ("label", Json.Str d.Prov.dlabel);
                                   ])
                               deltas) );
                      ]))
            else begin
              status_line va ma;
              status_line vb mb;
              Format.printf "peak: %s under %s vs %s under %s (%+.1f%%)@."
                (Prov.humanize_words ca.Prov.peak)
                (M.variant_name va)
                (Prov.humanize_words cb.Prov.peak)
                (M.variant_name vb)
                (Prov.percent_delta ~from:ca.Prov.peak ~to_:cb.Prov.peak);
              print_string
                (Table.census_diff ~label_a:(M.variant_name va)
                   ~label_b:(M.variant_name vb) deltas)
            end
        | _ ->
            Format.eprintf
              "schemesim: no peak census (did both runs take a step?)@.";
            exit 1);
        if failed ma || failed mb then exit 1
    | None ->
        let m, flat, linked_c, log_c = census_run variant in
        check_sums "flat" flat;
        check_sums "linked" linked_c;
        check_sums "log" log_c;
        (match flamegraph with
        | None -> ()
        | Some (path, oc) -> (
            match flat with
            | Some c ->
                output_string oc
                  (String.concat "\n" (Prov.flamegraph_lines c) ^ "\n");
                close_out oc;
                Format.eprintf "; flamegraph (%d stacks) -> %s@."
                  (List.length c.Prov.stacks) path
            | None ->
                Format.eprintf
                  "schemesim: no peak census to export (did the run take a \
                   step?)@.";
                exit 1));
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("program", Json.Str name);
                    ("n", Json.Int n);
                    ("variant", Json.Str (M.variant_name variant));
                    ("engine", Json.Str "stepper");
                    ("status", Json.Str (R.status_text m));
                    ("space_consumption", Json.Int m.R.space);
                    ("peak_space", Json.Int (R.peak_space m));
                    ("peaks", peaks_json m.R.peaks);
                    ("steps", Json.Int m.R.steps);
                    ( "flat",
                      match flat with
                      | Some c -> Prov.to_json c
                      | None -> Json.Null );
                    ( "linked",
                      match linked_c with
                      | Some c -> Prov.to_json c
                      | None -> Json.Null );
                    ( "log",
                      match log_c with
                      | Some c -> Prov.to_json c
                      | None -> Json.Null );
                  ]))
        else begin
          status_line variant m;
          (match flat with
          | Some c -> print_string (Table.census (truncate_rows c))
          | None ->
              Format.eprintf
                "schemesim: no peak census (did the run take a step?)@.";
              exit 1);
          List.iter
            (fun c ->
              print_newline ();
              print_string (Table.census (truncate_rows c)))
            (List.filter_map Fun.id [ linked_c; log_c ])
        end;
        if failed m then exit 1
  in
  let doc =
    "Space-provenance profiler: attribute every live word at the measured \
     peak to the allocation site that produced it (per-site heap census), \
     export collapsed-stack flamegraphs, and diff censuses across machine \
     variants."
  in
  Cmd.v (Cmd.info "spaceprof" ~exits ~doc)
    Term.(
      const spaceprof $ source_arg $ input_arg $ variant_arg $ fuel_arg
      $ model_arg $ json_arg $ flamegraph_arg $ diff_arg $ top_arg)

let () =
  let doc =
    "reference implementations for 'Proper Tail Recursion and Space \
     Efficiency' (Clinger, PLDI 1998)"
  in
  let info = Cmd.info "schemesim" ~version:"1.0.0" ~exits ~doc in
  let cmd =
    Cmd.group info
      [
        run_cmd;
        bench_cmd;
        analyze_cmd;
        corpus_cmd;
        report_cmd;
        spaceprof_cmd;
      ]
  in
  (* Cmdliner's own exit for a command-line error is 124; the contract
     above says 2. *)
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Version | `Help) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
