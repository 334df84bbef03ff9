(* The benchmark's metric names, units and directions. BENCHMARK.json
   repeats them with their bounds, of which [Compare] reads only the
   bounds; a test keeps the two in step. *)

type better = Lower | Higher

type spec = { name : string; unit : string; better : better }

let m better unit name = { name; unit; better }

let end_to_end =
  [
    m Lower "s" "setup_s";
    m Lower "s" "wall_s";
    m Higher "steps/s" "steps_per_s";
    m Lower "ms" "point_ms.p50";
    m Lower "ms" "point_ms.p90";
    m Lower "MB" "host_rss_mb";
    m Higher "fraction" "answers_ok";
    m Higher "fraction" "peaks_exact";
    m Higher "fraction" "completed_frac";
  ]

(* Every workload has six rows: six programs, or six variants on
   corpus-grid. *)
let rows = 6
let row_name i = Printf.sprintf "us_per_step.row%d" (i + 1)

let per_layer =
  [
    m Lower "ms" "sexp.parse_ms";
    m Lower "ms" "expander.expand_ms";
    m Lower "count" "expander.nodes";
    m Lower "ms" "analysis.annot_ms";
    m Lower "ms" "machine.create_ms";
    m Lower "count" "machine.steps";
    m Lower "words" "machine.alloc_words";
    m Lower "cells" "machine.store_hwm";
    m Lower "frames" "machine.max_cont_depth";
    m Lower "ns" "machine.plain_step_ns.p50";
    m Lower "ns" "machine.plain_step_ns.p99";
    m Lower "count" "gc.attempts";
    m Lower "count" "gc.reclaiming";
    m Higher "ratio" "gc.useful_ratio";
    m Higher "cells" "gc.freed";
    m Lower "ratio" "gc.step_share";
    m Lower "us" "gc.us_per_attempt";
    m Lower "us" "space.heavy_us_per_step";
    m Lower "ratio" "space.heavy_share";
  ]
  @ List.init rows (fun i -> m Lower "us" (row_name i))
  @ [
      m Lower "ratio" "trace.overhead";
      m Lower "s" "trace.pass_s";
      m Higher "ratio" "trace.self_coverage";
      m Lower "s" "self_s.machine.create";
      m Lower "s" "self_s.analysis.annot";
      m Lower "s" "self_s.machine.exec";
      m Lower "s" "self_s.gc.collect";
      m Lower "s" "self_s.machine.exec.flat-twin";
    ]

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Values in spec order; a name left uncomputed is a bug in the
   benchmark, not a measurement. *)
let collect specs values =
  List.map
    (fun s ->
      match List.assoc_opt s.name values with
      | Some v -> (s, v)
      | None -> failwith ("metric not computed: " ^ s.name))
    specs
