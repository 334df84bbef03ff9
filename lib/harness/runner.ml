module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Ast = Tailspace_ast.Ast
module Bignum = Tailspace_bignum.Bignum
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience
module Pool = Tailspace_parallel.Pool
module Expand = Tailspace_expander.Expand

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
  | Space_model.Flat -> Some m.space
  | Space_model.Linked -> Option.map (fun p -> p + psize) (peak_linked m)
  | Space_model.Log ->
      Option.map (fun p -> p + (Space_model.word_bits * psize)) (peak_log m)

let input_expr n = Ast.Quote (Ast.C_int (Bignum.of_int n))

let run_once ?(opts = Machine.Run_opts.default)
    ?(collect_telemetry = false) ?(config = Machine.Config.default)
    ~program ~n () =
  (* [collect_telemetry] attaches a fresh telemetry instance per point
     (never shared through [opts]), so parallel sweeps stay
     deterministic. *)
  let telemetry =
    if collect_telemetry then Some (Telemetry.create ())
    else opts.Machine.Run_opts.telemetry
  in
  let opts = { opts with Machine.Run_opts.telemetry } in
  let machine = Machine.create_with config in
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

type point = {
  source : string;
  config : Machine.Config.t;
  models : Space_model.t list;
  fuel : int;
  n : int;
}

let point ?(config = Machine.Config.default) ?(models = [])
    ?(fuel = Machine.Run_opts.default.fuel) source n =
  { source; config; models = Space_model.normalize models; fuel; n }

let measure ?pool ?(collect_telemetry = false) points =
  (* Points are keyed on their source text: two expansions of one source
     differ in gensym names, so an AST key would miss repeats. Each
     source is expanded once, here in the calling domain, and each
     distinct point runs once on a fresh machine, so a figure depends
     only on its point — not on the order, the job count, or the other
     points of the grid. *)
  let programs = Hashtbl.create 16 and seen = Hashtbl.create 256 in
  let program source =
    match Hashtbl.find_opt programs source with
    | Some program -> program
    | None ->
        let program = Expand.program_of_string source in
        Hashtbl.add programs source program;
        program
  in
  let distinct =
    List.filter_map
      (fun p ->
        if Hashtbl.mem seen p then None
        else begin
          Hashtbl.add seen p ();
          Some (p, program p.source)
        end)
      points
  in
  let measured =
    Pool.map ?pool
      (fun (p, program) ->
        run_once
          ~opts:(Machine.Run_opts.make ~fuel:p.fuel ~measure:p.models ())
          ~collect_telemetry ~config:p.config ~program ~n:p.n ())
      distinct
  in
  let table = Hashtbl.create (List.length distinct) in
  List.iter2 (fun (p, _) m -> Hashtbl.add table p m) distinct measured;
  Hashtbl.find table

type 'a grid = { points : point list; read : (point -> measurement) -> 'a }

let one p = { points = [ p ]; read = (fun lookup -> lookup p) }
let map f g = { g with read = (fun lookup -> f (g.read lookup)) }

let all gs =
  {
    points = List.concat_map (fun g -> g.points) gs;
    read = (fun lookup -> List.map (fun g -> g.read lookup) gs);
  }

let ( let+ ) g f = map f g

let ( and+ ) a b =
  { points = a.points @ b.points; read = (fun lookup -> (a.read lookup, b.read lookup)) }

let run ?pool g = g.read (measure ?pool g.points)

let sweep ?pool ?collect_telemetry at ns =
  let points = List.map at ns in
  List.map (measure ?pool ?collect_telemetry points) points

let answered m model =
  match m.status with Answer _ -> consumption m model | _ -> None

let all_answered ms =
  List.for_all (fun m -> match m.status with Answer _ -> true | _ -> false) ms
