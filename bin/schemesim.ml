(* schemesim — run Scheme programs on the paper's reference machines.

   subcommands:
     run         evaluate a file or expression on a chosen variant,
                 reporting the answer and the measured space consumption
     profile     run with full telemetry: JSON summary + CSV space profile
     bench       sweep a program over several inputs, tabulating space
     analyze     static tail-call statistics (Figure 2) for a file
     corpus      list the shipped corpus, or run one entry
     report      print the paper-reproduction experiment tables
     faults      fault-injection matrix + differential oracle (JSON)
     spaceprof   space-provenance profiler: per-site heap census at the
                 peak, flamegraph export, and per-variant census diffs

   exit codes (uniform across subcommands, documented in README):
     0  the program ran to completion (Done)
     1  program-level failure: stuck, aborted by the resource governor,
        a failed sweep point, or a failed oracle check
     2  usage error: bad flags, unreadable/unparsable source, unknown
        corpus entry or experiment *)

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
module Oracle = Tailspace_harness.Oracle
module Families = Tailspace_corpus.Families
module Pool = Tailspace_parallel.Pool
module Vm = Tailspace_vm.Vm
module Ast = Tailspace_ast.Ast
module Census = Tailspace_core.Census
module Prov = Tailspace_provenance.Provenance

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* JSON pieces shared by [run --json], [profile], and [bench --json]. *)

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

let vm_fast_arg =
  let doc =
    "Run on the bytecode VM with accounting compiled out instead of the \
     reference machines: answers only, much faster (tail variant, \
     left-to-right, flat model)."
  in
  Arg.(value & flag & info [ "vm-fast" ] ~doc)

(* The fast VM refuses configurations whose accounting it cannot honor;
   surface that as a usage error (exit 2) before running. *)
let resolve_engine ~vm_fast ~variant ~perm ~measure =
  let usage m =
    Format.eprintf "schemesim: %s@." m;
    exit 2
  in
  if not vm_fast then M.Stepper
  else begin
    if variant <> M.Tail then
      usage "--vm-fast supports only the tail variant (-v tail)";
    if perm <> M.Left_to_right then
      usage "--vm-fast evaluates left-to-right only (--perm ltr)";
    if SM.normalize measure <> [ SM.Flat ] then
      usage "--vm-fast measures only the flat model (drop --linked/--model)";
    M.Vm_fast
  end

let fuel_arg =
  let doc = "Maximum number of machine steps." in
  Arg.(value & opt int 20_000_000 & info [ "fuel" ] ~docv:"STEPS" ~doc)

let timeout_arg =
  let doc =
    "Wall-clock deadline in seconds; exceeding it aborts the run with a \
     structured 'deadline' outcome."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let space_budget_arg =
  let doc =
    "Maximum live flat space in words (Definition 21); the machine collects \
     before judging, so only genuinely live data counts."
  in
  Arg.(
    value & opt (some int) None & info [ "space-budget" ] ~docv:"WORDS" ~doc)

let output_cap_arg =
  let doc = "Maximum bytes the program may write with display/write." in
  Arg.(value & opt (some int) None & info [ "output-cap" ] ~docv:"BYTES" ~doc)

let make_budget ?timeout_s ?space_words ?output_bytes () =
  Res.Budget.make ?timeout_s ?space_words ?output_bytes ()

let linked_arg =
  let doc =
    "Also measure the linked-environment space model (Figure 8); shorthand \
     for --model linked."
  in
  Arg.(value & flag & info [ "linked" ] ~doc)

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
     accounting — every linked unit at ceil(log2 |store|) bits). Composes \
     with --linked."
  in
  Arg.(value & opt (list model_conv) [] & info [ "model" ] ~docv:"MODELS" ~doc)

(* The measure list a command runs under: --model's list plus the
   --linked shorthand, normalized (Flat always present, canonical
   order). *)
let measure_of ~linked ~models =
  SM.normalize (models @ if linked then [ SM.Linked ] else [])

(* "; linked peak U=..." / "; log peak Log=..." footer lines of the
   plain-text reports, one per heavy model measured. Definition 23
   charges the program term too: |P| words, or word-size bits under
   Log. *)
let print_heavy_peaks ~program_size peaks =
  List.iter
    (fun ((model : SM.t), p) ->
      match model with
      | SM.Flat -> ()
      | SM.Linked -> Format.printf "; linked peak U=%d@." (p + program_size)
      | SM.Log ->
          Format.printf "; log peak Log=%d bits@."
            (p + (SM.word_bits * program_size)))
    peaks

let no_annot_arg =
  let doc =
    "Disable the static annotation pass (precomputed per-node free-variable \
     sets and tail positions) and fall back to on-the-fly free-variable \
     computation. Observables are identical either way (oracle-checked); \
     this is the escape hatch for benchmarking the pass itself."
  in
  Arg.(value & flag & info [ "no-annot" ] ~doc)

let trace_arg =
  let doc = "Print a one-line description of the first $(docv) machine steps." in
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"STEPS" ~doc)

let profile_arg =
  let doc = "Write a step,space CSV profile of the run to $(docv)." in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the measurement sweep (default: available cores minus \
     one; 1 forces the serial path). Sweep points are independent, so the \
     output is byte-identical whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* ------------------------------------------------------------------ *)
(* run / profile shared plumbing                                       *)

let file_pos_arg =
  let doc = "Scheme source file (use - for stdin)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let expr_arg =
  let doc = "Evaluate an inline program instead of a file." in
  Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"PROGRAM" ~doc)

let input_arg =
  let doc =
    "Treat the program as §12's procedure-of-one-argument and apply it to \
     this integer."
  in
  Arg.(value & opt (some int) None & info [ "n"; "input" ] ~docv:"N" ~doc)

(* (display name, source text) or an error message. *)
let load_source file expr =
  match (file, expr) with
  | _, Some e -> Ok ("<expr>", e)
  | Some "-", None -> Ok ("<stdin>", In_channel.input_all stdin)
  | Some f, None -> ( try Ok (f, read_file f) with Sys_error m -> Error m)
  | None, None -> Error "expected a FILE argument or --expr"

let with_program file expr k =
  match load_source file expr with
  | Error m ->
      Format.eprintf "schemesim: %s@." m;
      exit 2
  | Ok (name, source) -> (
      match Expand.program_of_string source with
      | exception Reader.Parse_error e ->
          Format.eprintf "schemesim: %a@." Reader.pp_error e;
          exit 2
      | exception Expand.Expand_error e ->
          Format.eprintf "schemesim: %a@." Expand.pp_error e;
          exit 2
      | program -> k name program)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let json_arg =
    let doc =
      "Print a single JSON object (answer, space, telemetry summary, and the \
       ring-buffer trace when stuck) instead of the plain-text report."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let ring_arg =
    let doc =
      "Keep the last $(docv) configurations in a ring buffer, dumped when the \
       machine gets stuck (0 disables the per-step description cost)."
    in
    Arg.(value & opt int 16 & info [ "ring" ] ~docv:"K" ~doc)
  in
  let run file expr input variant perm stack_policy no_annot vm_fast fuel
      timeout space_budget output_cap linked models trace_steps profile json
      ring =
    with_program file expr @@ fun program_name program ->
    let measure = measure_of ~linked ~models in
    let engine = resolve_engine ~vm_fast ~variant ~perm ~measure in
    let budget =
      make_budget ?timeout_s:timeout ?space_words:space_budget
        ?output_bytes:output_cap ()
    in
    if engine = M.Vm_fast then begin
      if trace_steps > 0 then begin
        Format.eprintf
          "schemesim: --trace requires the stepper engine (the VM does not \
           describe per-step configurations)@.";
        exit 2
      end;
      if input = None then begin
        Format.eprintf
          "schemesim: --vm-fast requires --input N (the VM runs §12's \
           procedure-of-one-argument convention)@.";
        exit 2
      end;
      let config =
        M.Config.make ~engine ~variant ~perm ~stack_policy
          ~annotate:(not no_annot) ()
      in
      let profile_channel = Option.map open_out profile in
      let sink =
        Option.map
          (fun oc -> function
            | Tel.Step { step; space; _ } ->
                Printf.fprintf oc "%d,%d\n" step space
            | _ -> ())
          profile_channel
      in
      let telemetry = Tel.create ?sink ~ring () in
      let opts = M.Run_opts.make ~fuel ~budget ~measure ~telemetry () in
      let n = Option.get input in
      let r =
        Fun.protect
          ~finally:(fun () -> Option.iter close_out profile_channel)
          (fun () -> Vm.exec_program ~opts config ~program ~input:(R.input_expr n))
      in
      let space = r.Vm.program_size + Vm.peak_space r in
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                [
                  ("program", Json.Str program_name);
                  ("engine", Json.Str (M.engine_name engine));
                  ("variant", Json.Str (M.variant_name variant));
                  ( "outcome",
                    Json.Str
                      (match r.Vm.outcome with
                      | Vm.Done _ -> "done"
                      | Vm.Stuck _ -> "stuck"
                      | Vm.Aborted _ -> "aborted") );
                  ( "exit_code",
                    Json.Int
                      (match r.Vm.outcome with Vm.Done _ -> 0 | _ -> 1) );
                  ( "answer",
                    match r.Vm.outcome with
                    | Vm.Done a -> Json.Str a
                    | _ -> Json.Null );
                  ( "error",
                    match r.Vm.outcome with
                    | Vm.Stuck m -> Json.Str m
                    | Vm.Aborted reason ->
                        Json.Str (Res.abort_reason_message reason)
                    | Vm.Done _ -> Json.Null );
                  ( "abort",
                    match r.Vm.outcome with
                    | Vm.Aborted reason -> Res.abort_reason_to_json reason
                    | _ -> Json.Null );
                  ("program_size", Json.Int r.Vm.program_size);
                  ("space_consumption", Json.Int space);
                  ("steps", Json.Int r.Vm.steps);
                  ("peak_space", Json.Int (Vm.peak_space r));
                  ("gc_runs", Json.Int r.Vm.gc_runs);
                  ("peaks", peaks_json r.Vm.peaks);
                ]))
      else begin
        if r.Vm.output <> "" then print_string r.Vm.output;
        (match r.Vm.outcome with
        | Vm.Done answer -> Format.printf "%s@." answer
        | Vm.Stuck m -> Format.printf "stuck: %s@." m
        | Vm.Aborted reason ->
            Format.printf "aborted: %s@." (Res.abort_reason_message reason));
        Format.printf
          "; engine=%s variant=%s steps=%d |P|=%d peak=%d S=|P|+peak=%d \
           gc-runs=%d@."
          (M.engine_name engine) (M.variant_name variant) r.Vm.steps
          r.Vm.program_size (Vm.peak_space r) space r.Vm.gc_runs;
        print_heavy_peaks ~program_size:r.Vm.program_size r.Vm.peaks
      end;
      match r.Vm.outcome with Vm.Done _ -> exit 0 | _ -> exit 1
    end;
    let t =
      M.create_with
        (M.Config.make ~variant ~perm ~stack_policy ~annotate:(not no_annot) ())
    in
    let config_sink =
      if trace_steps <= 0 then None
      else
        Some
          (fun step description ->
            if step < trace_steps then
              Format.printf "; %6d %s@." step description)
    in
    let profile_channel = Option.map open_out profile in
    (* the step,space CSV profile is fed from the telemetry Step events,
       which the machine emits once per transition *)
    let sink =
      Option.map
        (fun oc -> function
          | Tel.Step { step; space; _ } -> Printf.fprintf oc "%d,%d\n" step space
          | _ -> ())
        profile_channel
    in
    let telemetry = Tel.create ?sink ?config_sink ~ring () in
    let opts = M.Run_opts.make ~fuel ~budget ~measure ~telemetry () in
    let result =
      Fun.protect
        ~finally:(fun () -> Option.iter close_out profile_channel)
        (fun () ->
          match input with
          | Some n -> M.exec_program ~opts t ~program ~input:(R.input_expr n)
          | None -> M.exec ~opts t program)
    in
    if json then
      print_endline
        (Json.to_string (result_json ~program_name ~variant result telemetry))
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
  let doc = "Run a Scheme program on a reference machine and measure space." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ file_pos_arg $ expr_arg $ input_arg $ variant_arg $ perm_arg
      $ stack_policy_arg $ no_annot_arg $ vm_fast_arg $ fuel_arg $ timeout_arg
      $ space_budget_arg $ output_cap_arg $ linked_arg $ model_arg $ trace_arg
      $ profile_arg $ json_arg $ ring_arg)

(* ------------------------------------------------------------------ *)
(* profile                                                             *)

let profile_cmd =
  let csv_arg =
    let doc =
      "Write the step,space CSV profile to $(docv) (default: the source \
       basename with a .space.csv suffix)."
    in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let stride_arg =
    let doc =
      "Sample the space profile every $(docv) steps (the stride doubles \
       automatically if the sample buffer fills)."
    in
    Arg.(value & opt int 1 & info [ "stride" ] ~docv:"STEPS" ~doc)
  in
  let events_arg =
    let doc =
      "Also stream every telemetry event (steps, continuation pushes/pops, \
       allocations, collections) to $(docv) as JSON lines."
    in
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)
  in
  let profile file expr input variant perm stack_policy no_annot fuel timeout
      space_budget output_cap linked models csv stride events =
    with_program file expr @@ fun program_name program ->
    let measure = measure_of ~linked ~models in
    let budget =
      make_budget ?timeout_s:timeout ?space_words:space_budget
        ?output_bytes:output_cap ()
    in
    let t =
      M.create_with
        (M.Config.make ~variant ~perm ~stack_policy ~annotate:(not no_annot) ())
    in
    let prof = Tel.Profile.create ~stride () in
    let events_channel = Option.map open_out events in
    let sink =
      Option.map
        (fun oc ->
          Tel.jsonl_sink (fun line ->
              output_string oc line;
              output_char oc '\n'))
        events_channel
    in
    let telemetry = Tel.create ?sink ~ring:16 ~profile:prof () in
    let opts = M.Run_opts.make ~fuel ~budget ~measure ~telemetry () in
    let result =
      Fun.protect
        ~finally:(fun () -> Option.iter close_out events_channel)
        (fun () ->
          match input with
          | Some n -> M.exec_program ~opts t ~program ~input:(R.input_expr n)
          | None -> M.exec ~opts t program)
    in
    let csv_path =
      match csv with
      | Some p -> p
      | None ->
          let base =
            match file with
            | Some f when f <> "-" ->
                Filename.remove_extension (Filename.basename f)
            | _ -> "profile"
          in
          base ^ ".space.csv"
    in
    write_file csv_path (Tel.Profile.to_csv prof);
    if result.M.output <> "" then prerr_string result.M.output;
    print_endline
      (Json.to_string (result_json ~program_name ~variant result telemetry));
    Format.eprintf "; space profile (%d samples, stride %d) -> %s@."
      (List.length (Tel.Profile.samples prof))
      (Tel.Profile.stride prof) csv_path;
    match result.M.outcome with M.Done _ -> () | _ -> exit 1
  in
  let doc =
    "Run with full telemetry: a JSON summary on stdout and a space-over-time \
     CSV profile on disk."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const profile $ file_pos_arg $ expr_arg $ input_arg $ variant_arg
      $ perm_arg $ stack_policy_arg $ no_annot_arg $ fuel_arg $ timeout_arg
      $ space_budget_arg $ output_cap_arg $ linked_arg $ model_arg $ csv_arg
      $ stride_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)

(* [bench --compare OLD NEW] gates on regressions between two baseline
   files written by [--baseline-out]. Space columns are deterministic
   word counts, so any growth is a regression, as is a [space] or
   [peak_space] that OLD has and NEW lacks, and a point whose status
   degrades from [done] or disappears. Wall time is not compared: the
   repo benchmark ([benchmark/]) gates it. A file without a non-empty
   [points] list is a usage error: there would be nothing to compare. *)
let compare_baselines old_path new_path =
  let load path =
    match Json.of_string (read_file path) with
    | Ok j -> j
    | Error m ->
        Format.eprintf "schemesim: %s: %s@." path m;
        exit 2
    | exception Sys_error m ->
        Format.eprintf "schemesim: %s@." m;
        exit 2
  in
  let old_j = load old_path and new_j = load new_path in
  let int_of name j =
    match Json.member name j with Some (Json.Int i) -> Some i | _ -> None
  in
  let str_of name j =
    match Json.member name j with Some (Json.Str s) -> Some s | _ -> None
  in
  let points path j =
    match Json.member "points" j with
    | Some (Json.List (_ :: _ as l)) -> l
    | _ ->
        Format.eprintf
          "schemesim: %s: not a bench baseline (no non-empty \"points\" \
           list)@."
          path;
        exit 2
  in
  let old_points = points old_path old_j
  and new_points = points new_path new_j in
  let regressions = ref [] in
  let reg fmt =
    Printf.ksprintf (fun s -> regressions := s :: !regressions) fmt
  in
  List.iter
    (fun op ->
      match int_of "n" op with
      | None -> ()
      | Some n -> (
          match
            List.find_opt (fun np -> int_of "n" np = Some n) new_points
          with
          | None -> reg "point n=%d missing from %s" n new_path
          | Some np ->
              (match (str_of "status" op, str_of "status" np) with
              | Some "done", Some s when s <> "done" ->
                  reg "point n=%d status degraded: done -> %s" n s
              | _ -> ());
              List.iter
                (fun field ->
                  match (int_of field op, int_of field np) with
                  | Some o, Some nn when nn > o ->
                      reg "point n=%d %s regression: %s -> %s (%+.1f%%)" n
                        field (Prov.humanize_words o)
                        (Prov.humanize_words nn)
                        (Prov.percent_delta ~from:o ~to_:nn)
                  | Some _, None ->
                      reg "point n=%d %s missing from %s" n field new_path
                  | _ -> ())
                [ "peak_space"; "space" ];
              (* per-model peaks: gate every model measured in BOTH
                 baselines; a model present only on one side is a
                 measurement-set change, not a regression *)
              let peaks j =
                match Json.member "peaks" j with
                | Some (Json.Obj fs) -> fs
                | _ -> []
              in
              List.iter
                (fun (model, ov) ->
                  match (ov, List.assoc_opt model (peaks np)) with
                  | Json.Int o, Some (Json.Int nn) when nn > o ->
                      reg "point n=%d peak[%s] regression: %d -> %d (%+.1f%%)"
                        n model o nn
                        (Prov.percent_delta ~from:o ~to_:nn)
                  | _ -> ())
                (peaks op)))
    old_points;
  match List.rev !regressions with
  | [] ->
      Format.printf "bench compare: %s vs %s: no regressions@." old_path
        new_path;
      exit 0
  | rs ->
      Format.printf "bench compare: %s vs %s: %d regression(s)@." old_path
        new_path (List.length rs);
      List.iter (fun r -> Format.printf "  REGRESSION %s@." r) rs;
      exit 1

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
  let keep_going_arg =
    let doc =
      "Crash-proof sweep: retry starved points with escalating fuel, keep \
       going past failed points, and report the partial table with per-point \
       abort reasons and notes."
    in
    Arg.(value & flag & info [ "keep-going" ] ~doc)
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
  let bench file expr name_opt ns variant perm stack_policy no_annot vm_fast
      fuel timeout space_budget output_cap linked models json keep_going jobs
      baseline_out compare new_pos =
    if compare then begin
      match (file, new_pos) with
      | Some old_path, Some new_path -> compare_baselines old_path new_path
      | _ ->
          Format.eprintf
            "schemesim: bench --compare expects two baseline files: bench \
             --compare OLD NEW@.";
          exit 2
    end;
    let measure = measure_of ~linked ~models in
    let engine = resolve_engine ~vm_fast ~variant ~perm ~measure in
    let name, program =
      match name_opt with
      | Some entry_name -> (
          match Corpus.find entry_name with
          | None ->
              Format.eprintf "schemesim: unknown corpus entry %S@." entry_name;
              exit 2
          | Some e -> (entry_name, Corpus.program e))
      | None -> (
          match load_source file expr with
          | Error m ->
              Format.eprintf "schemesim: %s@." m;
              exit 2
          | Ok (name, source) -> (
              match Expand.program_of_string source with
              | exception Reader.Parse_error e ->
                  Format.eprintf "schemesim: %a@." Reader.pp_error e;
                  exit 2
              | exception Expand.Expand_error e ->
                  Format.eprintf "schemesim: %a@." Expand.pp_error e;
                  exit 2
              | program -> (name, program)))
    in
    let budget =
      make_budget ?timeout_s:timeout ?space_words:space_budget
        ?output_bytes:output_cap ()
    in
    let started = Res.Clock.now () in
    let config =
      M.Config.make ~engine ~variant ~perm ~stack_policy
        ~annotate:(not no_annot) ()
    in
    let outcome =
      Pool.with_pool ?jobs (fun pool ->
          if keep_going then
            `Supervised
              (R.sweep_supervised ?pool
                 ~opts:
                   (M.Run_opts.make
                      ~budget:{ budget with Res.Budget.fuel = Some fuel }
                      ~measure ())
                 ~collect_telemetry:true ~config ~program ~ns ())
          else
            `Plain
              (R.sweep ?pool
                 ~opts:(M.Run_opts.make ~fuel ~budget ~measure ())
                 ~collect_telemetry:true ~config ~program ~ns ()))
    in
    let wall_s = Res.Clock.now () -. started in
    (match baseline_out with
    | None -> ()
    | Some path ->
        let ms =
          match outcome with
          | `Plain ms -> ms
          | `Supervised s ->
              List.map (fun (p : R.supervised_point) -> p.R.measurement)
                s.R.points
        in
        let merged =
          Tel.merge_summaries
            (List.filter_map (fun (m : R.measurement) -> m.R.summary) ms)
        in
        let baseline =
          Json.Obj
            [
              ("program", Json.Str name);
              ("variant", Json.Str (M.variant_name variant));
              ("ns", Json.List (List.map (fun n -> Json.Int n) ns));
              ( "jobs",
                Json.Int
                  (match jobs with Some j -> max 1 j | None -> Pool.default_jobs ())
              );
              ("wall_s", Json.Float wall_s);
              ( "points",
                Json.List
                  (List.map
                     (fun (m : R.measurement) ->
                       Json.Obj
                         [
                           ("n", Json.Int m.R.n);
                           ("space", Json.Int m.R.space);
                           ("peak_space", Json.Int (R.peak_space m));
                           ("peaks", peaks_json m.R.peaks);
                           ("steps", Json.Int m.R.steps);
                           ("status", status_json m.R.status);
                         ])
                     ms) );
              ("telemetry", Tel.summary_to_json merged);
            ]
        in
        write_file path (Json.to_string baseline);
        Format.eprintf "; baseline -> %s@." path);
    let failed =
      match outcome with
      | `Supervised s ->
        if json then
          print_endline
            (Json.to_string
               (Json.Obj
                  [
                    ("program", Json.Str name);
                    ("variant", Json.Str (M.variant_name variant));
                    ("answered", Json.Int s.R.answered);
                    ("degraded", Json.Int s.R.degraded);
                    ("status",
                     Json.Str (if s.R.degraded = 0 then "done" else "degraded"));
                    ( "points",
                      Json.List
                        (List.map
                           (fun (p : R.supervised_point) ->
                             Json.Obj
                               [
                                 ( "measurement",
                                   measurement_json name variant
                                     p.R.measurement );
                                 ("attempts", Json.Int p.R.attempts);
                                 ( "note",
                                   match p.R.note with
                                   | Some n -> Json.Str n
                                   | None -> Json.Null );
                               ])
                           s.R.points) );
                  ]))
        else begin
          Format.printf "%s(n) under %s (supervised):@." name
            (M.variant_name variant);
          print_string (Table.supervised s)
        end;
        s.R.degraded > 0
      | `Plain ms ->
        if json then
          print_endline
            (Json.to_string
               (Json.List (List.map (measurement_json name variant) ms)))
        else begin
          Format.printf "%s(n) under %s:@." name (M.variant_name variant);
          print_string (Table.measurements ms)
        end;
        not (R.all_answered ms)
    in
    if failed then exit 1
  in
  let baseline_out_arg =
    let doc =
      "Write a machine-readable baseline (deterministic per-point results \
       plus wall-clock, job count, and merged telemetry) to $(docv)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline-out" ] ~docv:"FILE" ~doc)
  in
  let corpus_name_arg =
    let doc = "Sweep a shipped corpus entry instead of a file." in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"NAME" ~doc)
  in
  let compare_arg =
    let doc =
      "Compare two baseline files written by --baseline-out instead of \
       sweeping: bench --compare OLD NEW. Exits 1 on any growth of a \
       point's space, peak space or per-model peak, on a space or peak \
       space missing from NEW, on a degraded point status, or on a missing \
       point; exits 2 if either file has no non-empty points list. Wall \
       time is not compared."
    in
    Arg.(value & flag & info [ "compare" ] ~doc)
  in
  let new_pos_arg =
    let doc = "The NEW baseline file (with --compare)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"NEW" ~doc)
  in
  let doc =
    "Sweep a program over several inputs, reporting space consumption, GC \
     activity, and telemetry per input; or compare two baselines \
     (--compare)."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const bench $ file_pos_arg $ expr_arg $ corpus_name_arg $ ns_arg
      $ variant_arg $ perm_arg $ stack_policy_arg $ no_annot_arg $ vm_fast_arg
      $ fuel_arg $ timeout_arg $ space_budget_arg $ output_cap_arg
      $ linked_arg $ model_arg $ json_arg $ keep_going_arg $ jobs_arg
      $ baseline_out_arg $ compare_arg $ new_pos_arg)

(* ------------------------------------------------------------------ *)
(* vmbench                                                             *)

(* Wall-clock comparison of the execution tiers on loop/arith-heavy
   corpus families, emitting the committed BENCH_vm.json format and
   optionally gating on the fast tier's speedup over the stepper. Each
   timing is the best of [reps] runs of the full engine path (for the
   fast VM that includes compilation — the honest end-to-end cost). *)
let vmbench_cmd =
  let default_families =
    [
      ("countdown", 100_000);
      ("even-odd", 50_000);
      ("fib-naive", 21);
      ("nqueens", 6);
      ("find-leftmost", 64);
      ("ack", 7);
    ]
  in
  let out_arg =
    let doc = "Write the per-family results as JSON to $(docv)." in
    Arg.(value & opt string "BENCH_vm.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let reps_arg =
    let doc = "Timing repetitions per (family, engine); best-of wins." in
    Arg.(value & opt int 3 & info [ "reps" ] ~docv:"K" ~doc)
  in
  let check_speedup_arg =
    let doc =
      "Fail (exit 1) unless at least --min-families families reach this \
       fast-tier speedup over the stepper."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "check-speedup" ] ~docv:"FACTOR" ~doc)
  in
  let min_families_arg =
    let doc = "How many families must reach --check-speedup." in
    Arg.(value & opt int 2 & info [ "min-families" ] ~docv:"K" ~doc)
  in
  let families_arg =
    let doc =
      "Families to measure, as NAME=N corpus entries (default: the shipped \
       loop/arith-heavy set)."
    in
    let cv =
      let parse s =
        match String.index_opt s '=' with
        | Some i -> (
            let name = String.sub s 0 i in
            match
              int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
            with
            | Some n -> Ok (name, n)
            | None -> Error (`Msg "expected NAME=N"))
        | None -> Error (`Msg "expected NAME=N")
      in
      Arg.conv
        (parse, fun ppf (name, n) -> Format.fprintf ppf "%s=%d" name n)
    in
    Arg.(
      value & opt_all cv default_families & info [ "family" ] ~docv:"NAME=N" ~doc)
  in
  let vmbench out reps check_speedup min_families families fuel =
    let time_best f =
      let rec go best k =
        if k = 0 then best
        else begin
          let t0 = Res.Clock.now () in
          let r = f () in
          let dt = Res.Clock.now () -. t0 in
          go (match best with Some (bt, _) when bt <= dt -> best | _ -> Some (dt, r)) (k - 1)
        end
      in
      match go None (max 1 reps) with
      | Some (dt, r) -> (dt, r)
      | None -> assert false
    in
    let opts = M.Run_opts.make ~fuel () in
    let rows =
      List.map
        (fun (name, n) ->
          match Corpus.find name with
          | None ->
              Format.eprintf "schemesim: unknown corpus entry %S@." name;
              exit 2
          | Some e ->
              let program = Corpus.program e in
              let point engine =
                time_best (fun () ->
                    R.run_once ~opts
                      ~config:(M.Config.make ~engine ())
                      ~program ~n ())
              in
              let stepper_s, sm = point M.Stepper in
              let fast_s, fm = point M.Vm_fast in
              let status (m : R.measurement) =
                match m.R.status with
                | R.Answer a -> "answer:" ^ a
                | R.Stuck s -> "stuck:" ^ s
                | R.Aborted r -> "aborted:" ^ Res.abort_reason_name r
              in
              let answers_agree = String.equal (status sm) (status fm) in
              let speedup = stepper_s /. Float.max fast_s 1e-9 in
              (name, n, stepper_s, fast_s, speedup, sm, answers_agree))
        families
    in
    let json =
      Json.Obj
        [
          ("tool", Json.Str "schemesim vmbench");
          ("reps", Json.Int reps);
          ( "families",
            Json.List
              (List.map
                 (fun (name, n, ss, fs, sp, sm, agree) ->
                   Json.Obj
                     [
                       ("name", Json.Str name);
                       ("n", Json.Int n);
                       ("stepper_s", Json.Float ss);
                       ("vm_fast_s", Json.Float fs);
                       ("speedup_fast", Json.Float sp);
                       ("steps", Json.Int sm.R.steps);
                       ("peak_space", Json.Int (R.peak_space sm));
                       ("answers_agree", Json.Bool agree);
                     ])
                 rows) );
        ]
    in
    write_file out (Json.to_string json);
    Format.printf "%-15s %8s %12s %12s %9s %s@." "family" "n" "stepper"
      "vm-fast" "speedup" "agree";
    List.iter
      (fun (name, n, ss, fs, sp, _, agree) ->
        Format.printf "%-15s %8d %10.3f s %10.4f s %8.1fx %s@." name n ss fs sp
          (if agree then "yes" else "NO"))
      rows;
    Format.printf "; results -> %s@." out;
    let disagreements =
      List.filter (fun (_, _, _, _, _, _, agree) -> not agree) rows
    in
    if disagreements <> [] then begin
      Format.printf "vmbench: FAILED (engine answers disagree)@.";
      exit 1
    end;
    match check_speedup with
    | None -> ()
    | Some target ->
        let at =
          List.length
            (List.filter (fun (_, _, _, _, sp, _, _) -> sp >= target) rows)
        in
        if at >= min_families then
          Format.printf "vmbench: OK (%d/%d families at >=%.0fx)@." at
            (List.length rows) target
        else begin
          Format.printf "vmbench: FAILED (only %d families at >=%.0fx, need %d)@."
            at target min_families;
          exit 1
        end
  in
  let doc =
    "Time the execution tiers (stepper, fast VM) on loop/arith-heavy corpus \
     families, write BENCH_vm.json, and optionally gate on the fast tier's \
     speedup."
  in
  Cmd.v (Cmd.info "vmbench" ~doc)
    Term.(
      const vmbench $ out_arg $ reps_arg $ check_speedup_arg $ min_families_arg
      $ families_arg $ fuel_arg)

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
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const analyze $ file_arg)

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)

let corpus_cmd =
  let name_arg =
    let doc = "Corpus entry to run (omit to list all entries)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let n_arg =
    let doc = "Input N for the chosen entry." in
    Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N" ~doc)
  in
  let corpus name n variant =
    match name with
    | None ->
        List.iter
          (fun (e : Corpus.entry) ->
            Format.printf "%-18s %s@." e.Corpus.name e.Corpus.description)
          Corpus.all
    | Some name -> (
        match Corpus.find name with
        | None ->
            Format.eprintf "schemesim: unknown corpus entry %S@." name;
            exit 2
        | Some e ->
            let n =
              match (n, e.Corpus.checks) with
              | Some n, _ -> n
              | None, (n, _) :: _ -> n
              | None, [] -> 0
            in
            let m =
              R.run_once
                ~config:(M.Config.make ~variant ())
                ~program:(Corpus.program e) ~n ()
            in
            (match m.R.status with
            | R.Answer a -> Format.printf "%s@." a
            | R.Stuck msg -> Format.printf "stuck: %s@." msg
            | R.Aborted r ->
                Format.printf "aborted: %s@." (Res.abort_reason_message r));
            Format.printf "; %s(%d) under %s: S=%d steps=%d@." name n
              (M.variant_name variant) m.R.space m.R.steps;
            match m.R.status with R.Answer _ -> () | _ -> exit 1)
  in
  let doc = "List or run the shipped Scheme corpus." in
  Cmd.v (Cmd.info "corpus" ~doc) Term.(const corpus $ name_arg $ n_arg $ variant_arg)

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
    let table =
      Pool.with_pool ?jobs (fun pool ->
          match which with
          | "fig2" -> Ok (X.Fig2.render (X.Fig2.run ()))
          | "thm25" -> Ok (X.Thm25.render (X.Thm25.run ?pool ()))
          | "thm24" -> Ok (X.Thm24.render (X.Thm24.run ?pool ()))
          | "thm26" -> Ok (X.Thm26.render (X.Thm26.run ?pool ()))
          | "sec4" -> Ok (X.Sec4.render (X.Sec4.run ?pool ()))
          | "cor20" -> Ok (X.Cor20.render (X.Cor20.run ?pool ()))
          | "cps" -> Ok (X.Cps.render (X.Cps.run ?pool ()))
          | "ablation" -> Ok (X.Ablation.render (X.Ablation.run ?pool ()))
          | "sanity" -> Ok (X.Sanity.render (X.Sanity.run ?pool ()))
          | "loghier" -> Ok (X.LogHier.render (X.LogHier.run ?pool ()))
          | "all" -> Ok (X.render_all ?pool ())
          | other -> Error other)
    in
    match table with
    | Ok s -> print_string s
    | Error other ->
        Format.eprintf "schemesim: unknown experiment %S@." other;
        exit 2
  in
  let doc = "Print the paper-reproduction tables (see DESIGN.md)." in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const report $ which_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)

let faults_cmd =
  let json_arg =
    let doc = "Print the matrix and oracle report as one JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let n_arg =
    let doc = "Input N for the separating programs." in
    Arg.(value & opt int 12 & info [ "n" ] ~docv:"N" ~doc)
  in
  let fuel_arg =
    let doc = "Fuel bound for each matrix run." in
    Arg.(value & opt int 2_000_000 & info [ "fuel" ] ~docv:"STEPS" ~doc)
  in
  let matrix_plans =
    [
      Res.Fault.none;
      Res.Fault.make ~label:"gc-every-1" ~gc_every:1 ();
      Res.Fault.make ~label:"gc-seed-7" ~gc_seed:7 ();
      Res.Fault.make ~label:"fail-alloc-100" ~fail_alloc:100 ();
      Res.Fault.make ~label:"fuel-drop-500+50" ~fuel_drop:(500, 50) ();
    ]
  in
  let faults json n fuel =
    (* every (separator, variant, plan) cell must end in a structured
       outcome — the run may answer, get stuck, or abort, but it must
       not escape as an exception or hang past the fuel bound *)
    let matrix =
      List.concat_map
        (fun (family, source) ->
          let program = Expand.program_of_string source in
          List.concat_map
            (fun variant ->
              List.map
                (fun plan ->
                  let cell =
                    match
                      R.run_once
                        ~opts:(M.Run_opts.make ~fuel ~fault:plan ())
                        ~config:(M.Config.make ~variant ())
                        ~program ~n ()
                    with
                    | m ->
                        let status =
                          match m.R.status with
                          | R.Answer a -> "answer:" ^ a
                          | R.Stuck s -> "stuck:" ^ s
                          | R.Aborted r ->
                              "aborted:" ^ Res.abort_reason_name r
                        in
                        (status, m.R.steps, R.peak_space m, true)
                    | exception e ->
                        ("escaped:" ^ Printexc.to_string e, 0, 0, false)
                  in
                  (family, variant, plan, cell))
                matrix_plans)
            M.all_variants)
        Families.separators
    in
    let matrix_ok =
      List.for_all (fun (_, _, _, (_, _, _, structured)) -> structured) matrix
    in
    let oracle = Oracle.run ~fuel () in
    let ok = matrix_ok && oracle.Oracle.ok in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("ok", Json.Bool ok);
                ("matrix_ok", Json.Bool matrix_ok);
                ( "matrix",
                  Json.List
                    (List.map
                       (fun (family, variant, plan, (status, steps, peak, _)) ->
                         Json.Obj
                           [
                             ("family", Json.Str family);
                             ("variant", Json.Str (M.variant_name variant));
                             ("plan", Json.Str (Res.Fault.label plan));
                             ("status", Json.Str status);
                             ("steps", Json.Int steps);
                             ("peak", Json.Int peak);
                           ])
                       matrix) );
                ("oracle", Oracle.to_json oracle);
              ]))
    else begin
      Format.printf
        "fault matrix: %d cells (%d families x %d variants x %d plans), %s@."
        (List.length matrix)
        (List.length Families.separators)
        (List.length M.all_variants)
        (List.length matrix_plans)
        (if matrix_ok then "all structured" else "ESCAPED EXCEPTIONS");
      List.iter
        (fun (family, variant, plan, (status, _, _, structured)) ->
          if not structured then
            Format.printf "  ESCAPE %s/%s/%s: %s@." family
              (M.variant_name variant) (Res.Fault.label plan) status)
        matrix;
      print_string (Oracle.render oracle)
    end;
    if not ok then exit 1
  in
  let doc =
    "Run the fault-injection matrix (Theorem 25's separating programs under \
     adversarial fault plans on all six variants) and the differential \
     oracle, reporting structured outcomes."
  in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const faults $ json_arg $ n_arg $ fuel_arg)

(* ------------------------------------------------------------------ *)
(* spaceprof                                                           *)

(* The space-provenance profiler: run once with a census attached, then
   decompose the measured peak into per-allocation-site live words. The
   census is rebuilt from the exact peak configuration, so its rows sum
   to the telemetry peak by construction — the sum is still re-checked
   here and a mismatch is a reportable bug (exit 1), never silently
   truncated output. *)
let spaceprof_cmd =
  let corpus_name_arg =
    let doc = "Profile a shipped corpus entry instead of a file." in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"NAME" ~doc)
  in
  let json_arg =
    let doc =
      "Print the census as one JSON object (rows, flamegraph stacks, and \
       labels; the linked and log censuses too with --linked / --model) \
       instead of tables."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let flamegraph_arg =
    let doc =
      "Write collapsed-stack lines (site;site;... words) to $(docv) — the \
       input format of flamegraph.pl and speedscope. Lines sum exactly to \
       the flat peak."
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
  let spaceprof file expr corpus_name input variant vm_fast fuel linked models
      json flamegraph diff top =
    let measure = measure_of ~linked ~models in
    let name, program =
      match corpus_name with
      | Some entry_name -> (
          match Corpus.find entry_name with
          | None ->
              Format.eprintf "schemesim: unknown corpus entry %S@." entry_name;
              exit 2
          | Some e -> (entry_name, Corpus.program e))
      | None ->
          with_program file expr (fun name program -> (name, program))
    in
    let n =
      match (input, corpus_name) with
      | Some n, _ -> n
      | None, Some entry_name -> (
          match Corpus.find entry_name with
          | Some { Corpus.checks = (n, _) :: _; _ } -> n
          | _ ->
              Format.eprintf
                "schemesim: corpus entry %S has no default input; pass \
                 --input N@."
                entry_name;
              exit 2)
      | None, None ->
          Format.eprintf
            "schemesim: spaceprof needs --input N (the program runs under \
             §12's procedure-of-one-argument convention)@.";
          exit 2
    in
    if vm_fast then begin
      Format.eprintf
        "schemesim: the fast tier compiles accounting out and cannot carry a \
         census; drop --vm-fast@.";
      exit 2
    end;
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
      Format.printf "; %s(%d) under %s (%s): S=%d peak=%d steps=%d%s%s@." name
        n
        (M.variant_name variant) (M.engine_name M.Stepper) m.R.space
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
        | Some path -> (
            match flat with
            | Some c ->
                write_file path
                  (String.concat "\n" (Prov.flamegraph_lines c) ^ "\n");
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
                    ("engine", Json.Str (M.engine_name M.Stepper));
                    ( "status",
                      Json.Str
                        (match m.R.status with
                        | R.Answer a -> "answer:" ^ a
                        | R.Stuck s -> "stuck:" ^ s
                        | R.Aborted r -> "aborted:" ^ Res.abort_reason_name r)
                    );
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
  Cmd.v (Cmd.info "spaceprof" ~doc)
    Term.(
      const spaceprof $ file_pos_arg $ expr_arg $ corpus_name_arg $ input_arg
      $ variant_arg $ vm_fast_arg $ fuel_arg $ linked_arg
      $ model_arg $ json_arg $ flamegraph_arg $ diff_arg $ top_arg)

let () =
  let doc =
    "reference implementations for 'Proper Tail Recursion and Space \
     Efficiency' (Clinger, PLDI 1998)"
  in
  let info = Cmd.info "schemesim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            profile_cmd;
            bench_cmd;
            vmbench_cmd;
            analyze_cmd;
            corpus_cmd;
            report_cmd;
            faults_cmd;
            spaceprof_cmd;
          ]))
