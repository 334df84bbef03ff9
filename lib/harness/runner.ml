module Machine = Tailspace_core.Machine
module Space_model = Tailspace_core.Space_model
module Ast = Tailspace_ast.Ast
module Bignum = Tailspace_bignum.Bignum
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience
module Pool = Tailspace_parallel.Pool
module Cache = Tailspace_parallel.Cache
module Vm = Tailspace_vm.Vm
module Json = Telemetry.Json

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
     (never shared through [opts]), so cached and parallel sweeps stay
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

(* The fast VM reports the same measurement shape as the stepper; its
   space columns are 0/absent by construction (the tier compiles the
   accounting out), which downstream selectors like [spaces] happily
   carry. *)
let measure_vm config ?(opts = Machine.Run_opts.default)
    ?(collect_telemetry = false) ~program ~n () =
  let telemetry =
    if collect_telemetry then Some (Telemetry.create ())
    else opts.Machine.Run_opts.telemetry
  in
  let opts = { opts with Machine.Run_opts.telemetry } in
  let r = Vm.exec_program ~opts config ~program ~input:(input_expr n) in
  let status =
    match r.Vm.outcome with
    | Vm.Done answer -> Answer answer
    | Vm.Stuck m -> Stuck m
    | Vm.Aborted reason -> Aborted reason
  in
  {
    n;
    space = r.Vm.program_size + Vm.peak_space r;
    peaks = r.Vm.peaks;
    steps = r.Vm.steps;
    status;
    gc_runs = r.Vm.gc_runs;
    summary =
      (if collect_telemetry then Option.map Telemetry.summary telemetry
       else None);
  }

let run_once ?opts ?collect_telemetry ?(config = Machine.Config.default)
    ~program ~n () =
  match config.Machine.Config.engine with
  | Machine.Stepper ->
      let machine = Machine.create_with config in
      measure_with machine ?opts ?collect_telemetry ~program ~n ()
  | Machine.Vm_fast ->
      measure_vm config ?opts ?collect_telemetry ~program ~n ()

(* {2 Measurement codecs}

   A cached measurement must round-trip exactly, including the abort
   reason and the telemetry summary, so a cache-warm sweep is
   indistinguishable from a cold one. *)

let status_to_json = function
  | Answer a -> Json.Obj [ ("kind", Json.Str "answer"); ("value", Json.Str a) ]
  | Stuck m -> Json.Obj [ ("kind", Json.Str "stuck"); ("message", Json.Str m) ]
  | Aborted r ->
      Json.Obj
        [
          ("kind", Json.Str "aborted");
          ("reason", Resilience.abort_reason_to_json r);
        ]

let str_field name json =
  match Json.member name json with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let int_field name json =
  match Json.member name json with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing integer field %S" name)

let ( let* ) = Result.bind

let status_of_json json =
  let* kind = str_field "kind" json in
  match kind with
  | "answer" ->
      let* v = str_field "value" json in
      Ok (Answer v)
  | "stuck" ->
      let* m = str_field "message" json in
      Ok (Stuck m)
  | "aborted" -> (
      match Json.member "reason" json with
      | Some r ->
          Result.map (fun r -> Aborted r) (Resilience.abort_reason_of_json r)
      | None -> Error "status: missing field \"reason\"")
  | k -> Error (Printf.sprintf "status: unknown kind %S" k)

(* Unmeasured models are *omitted* from the peaks object — never
   emitted as null — so partial supervised sweeps degrade gracefully
   on re-read instead of tripping a strict decoder. *)
let peaks_to_json peaks =
  Json.Obj
    (List.map (fun (m, p) -> (Space_model.name m, Json.Int p)) peaks)

let peaks_of_json json =
  match json with
  | Json.Obj fields ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, Json.Int p) :: rest -> (
            match Space_model.of_name name with
            | Some m -> go ((m, p) :: acc) rest
            | None -> Error (Printf.sprintf "peaks: unknown model %S" name))
        | (name, _) :: _ ->
            Error (Printf.sprintf "peaks: field %S must be an integer" name)
      in
      go [] fields
  | _ -> Error "peaks: expected an object"

let measurement_to_json m =
  Json.Obj
    [
      ("n", Json.Int m.n);
      ("space", Json.Int m.space);
      ("peaks", peaks_to_json m.peaks);
      ("steps", Json.Int m.steps);
      ("status", status_to_json m.status);
      ("gc_runs", Json.Int m.gc_runs);
      ( "summary",
        match m.summary with
        | Some s -> Telemetry.summary_to_json s
        | None -> Json.Null );
    ]

let measurement_of_json json =
  let* n = int_field "n" json in
  let* space = int_field "space" json in
  let* steps = int_field "steps" json in
  let* gc_runs = int_field "gc_runs" json in
  let* peaks =
    match Json.member "peaks" json with
    | Some p -> peaks_of_json p
    | None -> Ok []
  in
  let* status =
    match Json.member "status" json with
    | Some s -> status_of_json s
    | None -> Error "measurement: missing field \"status\""
  in
  let* summary =
    match Json.member "summary" json with
    | Some Json.Null | None -> Ok None
    | Some s -> Result.map Option.some (Telemetry.summary_of_json s)
  in
  Ok { n; space; peaks; steps; status; gc_runs; summary }

(* {2 Cache keys}

   Everything that can change a measurement goes into the key: the
   program identity supplied by the caller ([cache_source] — source
   text, or a corpus tag), the machine configuration, the governor
   budget, the fault plan, and the input. The leading version tag
   invalidates old entries whenever the codec or the semantics of a
   part changes. *)

let point_key ~source ?(opts = Machine.Run_opts.default)
    ?(collect_telemetry = false) ~config ~extra ~n () =
  let opt f = function Some v -> f v | None -> "default" in
  Cache.key
    ([
       (* v4: [measure_linked : bool] became the [Space_model] list and
          the measurement codec grew the per-model [peaks] object; old
          v3 entries (boolean key part, [linked]/[peak_space] fields)
          simply miss and recompute. *)
       "tailspace-measurement-v4";
       source;
       (* The machine part of the key is the canonical serialized
          config, so anything that can change a machine's behavior —
          including the annotation toggle and the seed — is keyed. *)
       Json.to_string (Machine.Config.to_json config);
       string_of_int opts.Machine.Run_opts.fuel;
       opt
         (fun b -> Json.to_string (Resilience.Budget.to_json b))
         opts.Machine.Run_opts.budget;
       opt
         (fun f -> Json.to_string (Resilience.Fault.to_json f))
         opts.Machine.Run_opts.fault;
       Space_model.names opts.Machine.Run_opts.measure;
       (match opts.Machine.Run_opts.gc_policy with
       | `Exact -> "exact"
       | `Approximate -> "approximate");
       string_of_bool collect_telemetry;
       string_of_int n;
     ]
    @ extra)

(* Probe the cache for every input, compute only the misses (fanned out
   on the pool when given), then store the fresh results and reassemble
   the table in input order. Cache traffic stays on the calling domain;
   workers only ever run the pure task. *)
let through_cache ~cache ~key ~decode ~encode ~task ?pool ns =
  let probed =
    List.map
      (fun n ->
        let hit =
          Option.bind (Cache.find cache (key n)) (fun j ->
              Result.to_option (decode j))
        in
        (n, hit))
      ns
  in
  let missing = List.filter_map (fun (n, h) -> if h = None then Some n else None) probed in
  let fresh = ref (Pool.map ?pool task missing) in
  List.map
    (fun (n, hit) ->
      match hit with
      | Some v -> v
      | None -> (
          match !fresh with
          | v :: rest ->
              fresh := rest;
              Cache.store cache (key n) (encode v);
              v
          | [] -> assert false))
    probed

let sweep ?pool ?cache ?cache_source ?opts ?collect_telemetry
    ?(config = Machine.Config.default) ~program ~ns () =
  (* Each point runs on a fresh machine so results depend only on the
     point itself — not on sweep order, job count, or RNG state carried
     over from earlier inputs. This is what makes parallel sweeps
     byte-identical to serial ones. *)
  let task n = run_once ?opts ?collect_telemetry ~config ~program ~n () in
  match (cache, cache_source) with
  | Some cache, Some source ->
      let key n =
        point_key ~source ?opts ?collect_telemetry ~config ~extra:[] ~n ()
      in
      through_cache ~cache ~key ~decode:measurement_of_json
        ~encode:measurement_to_json ~task ?pool ns
  | _ -> Pool.map ?pool task ns

(* {2 The crash-proof sweep supervisor} *)

type supervised_point = {
  measurement : measurement;
  attempts : int;
  note : string option;
}

type supervised = {
  points : supervised_point list;
  answered : int;
  degraded : int;
}

let crashed_measurement n message =
  {
    n;
    space = 0;
    peaks = [];
    steps = 0;
    status = Aborted (Resilience.Crashed message);
    gc_runs = 0;
    summary = None;
  }

let supervised_point_to_json p =
  Json.Obj
    [
      ("measurement", measurement_to_json p.measurement);
      ("attempts", Json.Int p.attempts);
      ("note", match p.note with Some s -> Json.Str s | None -> Json.Null);
    ]

let supervised_point_of_json json =
  let* measurement =
    match Json.member "measurement" json with
    | Some m -> measurement_of_json m
    | None -> Error "supervised_point: missing field \"measurement\""
  in
  let* attempts = int_field "attempts" json in
  let note =
    match Json.member "note" json with Some (Json.Str s) -> Some s | _ -> None
  in
  Ok { measurement; attempts; note }

let sweep_supervised ?pool ?cache ?cache_source
    ?(opts = Machine.Run_opts.default) ?collect_telemetry
    ?(config = Machine.Config.default) ?(max_attempts = 3) ?(fuel_factor = 4)
    ?(fuel_cap = 50_000_000) ?(initial_fuel = 1_000_000) ~program ~ns () =
  let base_budget =
    Option.value opts.Machine.Run_opts.budget
      ~default:Resilience.Budget.unlimited
  in
  let start_fuel =
    min fuel_cap
      (Option.value base_budget.Resilience.Budget.fuel ~default:initial_fuel)
  in
  let supervise n =
    let rec attempt k fuel =
      let opts =
        {
          opts with
          Machine.Run_opts.budget =
            Some { base_budget with Resilience.Budget.fuel = Some fuel };
        }
      in
      (* A fresh machine per attempt: retries differ only in their fuel,
         and points are independent of each other and of ordering. *)
      let m =
        match run_once ~opts ?collect_telemetry ~config ~program ~n () with
        | m -> m
        | exception e -> crashed_measurement n (Printexc.to_string e)
      in
      match m.status with
      | Aborted (Resilience.Out_of_fuel _)
        when k < max_attempts && fuel < fuel_cap ->
          attempt (k + 1) (min fuel_cap (fuel * fuel_factor))
      | Answer _ ->
          let note =
            if k = 1 then None
            else Some (Printf.sprintf "succeeded on attempt %d (fuel %d)" k fuel)
          in
          { measurement = m; attempts = k; note }
      | status ->
          let what =
            match status with
            | Aborted r -> Resilience.abort_reason_message r
            | Stuck msg -> "stuck: " ^ msg
            | Answer _ -> assert false
          in
          let note =
            if k = 1 then Some what
            else Some (Printf.sprintf "gave up after %d attempts: %s" k what)
          in
          { measurement = m; attempts = k; note }
    in
    attempt 1 start_fuel
  in
  let points =
    match (cache, cache_source) with
    | Some cache, Some source ->
        let key n =
          point_key ~source ~opts ?collect_telemetry ~config
            ~extra:
              [
                "supervised";
                string_of_int max_attempts;
                string_of_int fuel_factor;
                string_of_int fuel_cap;
                string_of_int initial_fuel;
              ]
            ~n ()
        in
        through_cache ~cache ~key ~decode:supervised_point_of_json
          ~encode:supervised_point_to_json ~task:supervise ?pool ns
    | _ -> Pool.map ?pool supervise ns
  in
  let answered =
    List.length
      (List.filter
         (fun p -> match p.measurement.status with Answer _ -> true | _ -> false)
         points)
  in
  { points; answered; degraded = List.length points - answered }

let spaces ms =
  List.filter_map
    (fun m -> match m.status with Answer _ -> Some (m.n, m.space) | _ -> None)
    ms

(* Per-model selector: answered points where the model was actually
   measured; anything else is omitted, so a sweep whose points were
   measured under different model lists (e.g. a supervised sweep with
   crashed points) degrades to the points that have the data. *)
let spaces_for model ms =
  List.filter_map
    (fun m ->
      match (m.status, consumption m model) with
      | Answer _, Some c -> Some (m.n, c)
      | _ -> None)
    ms

let linked_spaces ms = spaces_for Space_model.Linked ms
let log_spaces ms = spaces_for Space_model.Log ms

let all_answered ms =
  List.for_all (fun m -> match m.status with Answer _ -> true | _ -> false) ms
