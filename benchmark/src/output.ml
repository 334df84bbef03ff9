module Json = Tailspace_telemetry.Telemetry.Json

let metrics_json ms =
  Json.Obj
    (List.map
       (fun ((s : Metrics.spec), v) ->
         (s.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str s.unit) ]))
       ms)

let traced (r : Measure.report) = r.per_layer <> []

(* The last line of a run: exactly these four keys, with the per-layer
   metrics when traced and the end-to-end ones otherwise. *)
let result_line (r : Measure.report) =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", metrics_json (if traced r then r.per_layer else r.end_to_end));
    ]

(* Everything [compare] needs, including every point's exact figures. *)
let result_file (r : Measure.report) =
  Json.Obj
    [
      ("workload", Json.Str r.workload.name);
      ("seed", Json.Int r.seed);
      ("trace", Json.Bool (traced r));
      ("passes", Json.Int r.passes);
      ("samples", Json.Int r.samples);
      ("pass_ns", Json.List (List.map (fun n -> Json.Int n) r.pass_ns));
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("end_to_end", metrics_json r.end_to_end);
      ("per_layer", metrics_json r.per_layer);
      ("rows", Json.Obj (List.map (fun (l, v) -> (l, Json.Float v)) r.rows));
      ("points", Json.List (List.map Record.to_json r.points));
      ("problems", Json.List (List.map (fun p -> Json.Str p) r.problems));
    ]

let print_report (r : Measure.report) =
  Printf.printf
    "workload %s  seed %d  points %d  passes %d  point samples %d (highest \
     percentile with ten beyond: %s)\n"
    r.workload.name r.seed (List.length r.points) r.passes r.samples
    (match Stats.highest_percentile r.samples with
    | Some p -> Printf.sprintf "p%g" p
    | None -> "none");
  Printf.printf "  raw median pass %.6g s (times below are scaled; see Calib)\n"
    (Stats.median (List.map float r.pass_ns) /. 1e9);
  let show ((s : Metrics.spec), v) =
    Printf.printf "  %-32s %16.6g %s\n" s.name v s.unit
  in
  List.iter show r.end_to_end;
  List.iteri
    (fun i (label, v) ->
      Printf.printf "  %-32s %16.6g us/step  (%s)\n" (Metrics.row_name i) v label)
    r.rows;
  List.iter
    (fun (((s : Metrics.spec), _) as m) ->
      if not (String.starts_with ~prefix:"us_per_step." s.name) then show m)
    r.per_layer;
  List.iter (Printf.printf "problem: %s\n") r.problems
