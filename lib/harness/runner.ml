module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Ast = Tailspace_ast.Ast
module Bignum = Tailspace_bignum.Bignum
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience
module Pool = Tailspace_parallel.Pool
module Vm = Tailspace_vm.Vm

type status =
  | Answer of string
  | Stuck of string
  | Aborted of Resilience.abort_reason

type measurement = {
  n : int;
  space : int;
  peaks : (Space_model.t * int) list;
  steps : int;
  status : status;
  gc_runs : int;
  summary : Telemetry.summary option;
}

let status_text m =
  match m.status with
  | Answer a -> "answer:" ^ a
  | Stuck s -> "stuck:" ^ s
  | Aborted r -> "aborted:" ^ Resilience.abort_reason_name r

let peak_of m model =
  List.find_map
    (fun (mm, p) -> if Space_model.equal mm model then Some p else None)
    m.peaks

let peak_space m = Option.value (peak_of m Space_model.Flat) ~default:0
let peak_linked m = peak_of m Space_model.Linked
let peak_log m = peak_of m Space_model.Log

(* The per-model space-consumption headline, Definition 23 style: the
   raw peak plus the [|P|] program term in the model's own unit — one
   word per AST node for the word models, [word_bits] bits per node for
   the log model. *)
let consumption m model =
  let psize = m.space - peak_space m in
  match (model : Space_model.t) with
  | Space_model.Flat -> (
      match peak_of m Space_model.Flat with
      | Some _ -> Some m.space
      | None -> None)
  | Space_model.Linked -> Option.map (fun p -> p + psize) (peak_linked m)
  | Space_model.Log ->
      Option.map (fun p -> p + (Space_model.word_bits * psize)) (peak_log m)


let input_expr n = Ast.Quote (Ast.C_int (Bignum.of_int n))

let measure_with machine ?(opts = Machine.Run_opts.default)
    ?(collect_telemetry = false) ~program ~n () =
  (* [collect_telemetry] attaches a fresh telemetry instance per point
     (never shared through [opts]), so parallel sweeps stay
     deterministic. *)
  let telemetry =
    if collect_telemetry then Some (Telemetry.create ())
    else opts.Machine.Run_opts.telemetry
  in
  let opts = { opts with Machine.Run_opts.telemetry } in
  let r = Machine.exec_program ~opts machine ~program ~input:(input_expr n) in
  let status =
    match r.Machine.outcome with
    | Machine.Done { answer; _ } -> Answer answer
    | Machine.Stuck m -> Stuck m
    | Machine.Aborted { reason; _ } -> Aborted reason
  in
  {
    n;
    space = Machine.space_consumption r;
    peaks = r.Machine.peaks;
    steps = r.Machine.steps;
    status;
    gc_runs = r.Machine.gc_runs;
    summary =
      (if collect_telemetry then Option.map Telemetry.summary telemetry
       else None);
  }

(* The fast VM reports the same measurement shape as the stepper, with
   no peak and no telemetry summary: the tier measures no space, so
   [consumption] is [None] and every printer shows the figure as
   missing. *)
let measure_vm config ?(opts = Machine.Run_opts.default) ~program ~n () =
  let r = Vm.exec_program ~opts config ~program ~input:(input_expr n) in
  let status =
    match r.Vm.outcome with
    | Vm.Done answer -> Answer answer
    | Vm.Stuck m -> Stuck m
    | Vm.Aborted reason -> Aborted reason
  in
  {
    n;
    space = r.Vm.program_size;
    peaks = [];
    steps = r.Vm.steps;
    status;
    gc_runs = 0;
    summary = None;
  }

let run_once ?opts ?collect_telemetry ?(config = Machine.Config.default)
    ~program ~n () =
  match config.Machine.Config.engine with
  | Machine.Stepper ->
      let machine = Machine.create_with config in
      measure_with machine ?opts ?collect_telemetry ~program ~n ()
  | Machine.Vm_fast ->
      measure_vm config ?opts ~program ~n ()

let sweep ?pool ?opts ?collect_telemetry ?(config = Machine.Config.default)
    ~program ~ns () =
  (* Each point runs on a fresh machine so results depend only on the
     point itself — not on sweep order, job count, or RNG state carried
     over from earlier inputs. This is what makes parallel sweeps
     byte-identical to serial ones. *)
  Pool.map ?pool
    (fun n -> run_once ?opts ?collect_telemetry ~config ~program ~n ())
    ns

let spaces ms =
  List.filter_map
    (fun m -> match m.status with Answer _ -> Some (m.n, m.space) | _ -> None)
    ms

(* Per-model selector: answered points where the model was actually
   measured; anything else is omitted, so a sweep with a fast-VM or
   unanswered point degrades to the points that have the data. *)
let spaces_for model ms =
  List.filter_map
    (fun m ->
      match (m.status, consumption m model) with
      | Answer _, Some c -> Some (m.n, c)
      | _ -> None)
    ms

let all_answered ms =
  List.for_all (fun m -> match m.status with Answer _ -> true | _ -> false) ms
