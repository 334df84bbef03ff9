open Tailspace_benchmark
module Json = Tailspace_telemetry.Telemetry.Json
open Cmdliner

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc

let out_dir = Filename.concat "benchmark" "_out"
let expected_dir = Filename.concat "benchmark" "expected"

let run_one ~workload ~seed ~seconds ~trace ~out =
  let w = Option.get (Workload.find workload) in
  let expected =
    if seed = Record.default_seed then
      Some (Record.load_expected expected_dir ~workload)
    else None
  in
  let spans_file =
    if not trace then None
    else begin
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      Some (Filename.concat out_dir (workload ^ ".spans.jsonl"))
    end
  in
  let r = Measure.run ?expected ?spans_file ~seconds ~trace w ~seed in
  Output.print_report r;
  Option.iter (fun path -> write_json path (Output.result_file r)) out;
  print_endline (Json.to_string (Output.result_line r))

(* Each workload in its own child process, so that heap growth and the
   resident-set high-water mark stay per workload. *)
let run_all ~seed ~seconds ~trace =
  let results =
    List.map
      (fun workload ->
        let args =
          [|
            Sys.executable_name; "run"; "--workload"; workload; "--seed";
            string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; (if trace then "1" else "0");
          |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let rec echo last =
          match input_line ic with
          | line ->
              print_endline line;
              echo (Some line)
          | exception End_of_file -> last
        in
        let last = echo None in
        let status = Unix.close_process_in ic in
        match (status, Option.map Json.of_string last) with
        | Unix.WEXITED 0, Some (Ok json) -> (workload, json)
        | _ -> failwith (workload ^ ": run failed"))
      Workload.names
  in
  let get name conv json = conv (Option.get (Json.member name json)) in
  let bool = function Json.Bool b -> b | _ -> false in
  let int = function Json.Int i -> i | _ -> 0 in
  let total name = List.fold_left (fun a (_, j) -> a + get name int j) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (List.for_all (fun (_, j) -> get "correct" bool j) results));
            ("attempted", Json.Int (total "attempted"));
            ("failed", Json.Int (total "failed"));
            ( "workloads",
              Json.Obj
                (List.map (fun (w, j) -> (w, Option.get (Json.member "metrics" j))) results)
            );
          ]))

let workload_arg =
  let names = Workload.names @ [ "all" ] in
  Arg.(
    required
    & opt (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [ "workload" ] ~docv:"NAME"
        ~doc:(Printf.sprintf "Workload: %s." (String.concat ", " names)))

let run_cmd =
  let seed =
    Arg.(
      value & opt int Record.default_seed
      & info [ "seed" ] ~doc:"Seed of the generated inputs.")
  in
  let seconds =
    Arg.(
      value & opt float 20.
      & info [ "seconds" ]
          ~doc:"Measure timed passes for this long (at least enough passes \
                for 100 point samples).")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: also run one traced pass, print the per-layer metrics and \
                write spans to benchmark/_out/WORKLOAD.spans.jsonl.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the full result, with every point's figures, for \
                $(b,compare).")
  in
  let go workload seed seconds trace out =
    if workload = "all" then run_all ~seed ~seconds ~trace
    else run_one ~workload ~seed ~seconds ~trace ~out
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload and print its metrics.")
    Term.(const go $ workload_arg $ seed $ seconds $ trace $ out)

(* The shortest traced run checks every point against the reference
   and across passes; only a correct run is written. *)
let record_cmd =
  let go workload =
    let ws = if workload = "all" then Workload.names else [ workload ] in
    let written =
      List.map
        (fun name ->
          let w = Option.get (Workload.find name) in
          let r = Measure.run ~seconds:0. ~trace:true w ~seed:Record.default_seed in
          if r.correct then begin
            Record.write_expected expected_dir ~workload:name r.points;
            Printf.printf "%s: %d points written\n" name (List.length r.points);
            true
          end
          else begin
            List.iter (Printf.printf "%s: %s\n" name) r.problems;
            Printf.printf "%s: not written\n" name;
            false
          end)
        ws
    in
    if List.mem false written then exit 1
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Regenerate the expected outputs for the default seed; refuses \
             when an answer disagrees with the fast-VM reference.")
    Term.(const go $ workload_arg)

let compare_cmd =
  let files side =
    Arg.(
      value & opt_all string []
      & info [ side ] ~docv:"FILE" ~doc:"A result file written with --out.")
  in
  let go base head =
    let load paths =
      List.map
        (fun p ->
          match Compare.load p with Ok r -> r | Error m -> failwith m)
        paths
    in
    match Compare.load_bounds Compare.spec_file with
    | Error m -> failwith m
    | Ok bounds ->
        if Compare.run ~bounds ~base:(load base) ~head:(load head) then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare result files of two commits; exits 1 on a regression.")
    Term.(const go $ files "base" $ files "head")

let () =
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "benchmark") [ run_cmd; record_cmd; compare_cmd ]))
