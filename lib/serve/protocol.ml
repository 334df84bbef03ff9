module Json = Tailspace_telemetry.Telemetry.Json
module M = Tailspace_core.Machine
module SM = Tailspace_core.Space_model
module Res = Tailspace_resilience.Resilience

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)

type endpoint = Tcp of string * int | Unix_domain of string

let endpoint_name = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_domain path -> "unix:" ^ path

let sockaddr_of = function
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> raise Not_found
          | { Unix.h_addr_list; _ } -> h_addr_list.(0))
      in
      Unix.ADDR_INET (addr, port)
  | Unix_domain path -> Unix.ADDR_UNIX path

let listen ?(backlog = 64) endpoint =
  let domain =
    match endpoint with Tcp _ -> Unix.PF_INET | Unix_domain _ -> Unix.PF_UNIX
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try
     (match endpoint with
     | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
     | Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ()));
     Unix.bind fd (sockaddr_of endpoint);
     Unix.listen fd backlog
   with e ->
     Unix.close fd;
     raise e);
  fd

let connect endpoint =
  let domain =
    match endpoint with Tcp _ -> Unix.PF_INET | Unix_domain _ -> Unix.PF_UNIX
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of endpoint)
   with e ->
     Unix.close fd;
     raise e);
  fd

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> Some port
  | Unix.ADDR_UNIX _ -> None

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let default_max_frame = 8 * 1024 * 1024

type read_error =
  | Closed
  | Idle_closed
  | Truncated
  | Oversized of int
  | Bad_json of string
  | Timed_out

let read_error_message = function
  | Closed -> "connection closed"
  | Idle_closed -> "idle connection closed by server"
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "frame length %d exceeds the limit" n
  | Bad_json m -> "unparsable frame payload: " ^ m
  | Timed_out -> "frame did not complete in time"

(* The framing clock is always the real one: select timeouts have to
   line up with actual elapsed time, unlike the budget deadlines that
   tests drive through the injectable [Res.Clock]. *)
let real_now () = Unix.gettimeofday ()

type fill = Filled | Fill_error of read_error

(* Fill [buf] from [fd]. With [armed], the frame timeout counts from
   the first call (payload reads: the frame has already started);
   otherwise we idle in 100ms slices polling [give_up] until the first
   byte arrives, and only then arm the deadline — a connection may sit
   quietly between requests forever, but once a frame starts it must
   finish within [frame_timeout_s] (the slow-loris guard). *)
let read_exactly ~armed ~frame_timeout_s ~give_up fd buf =
  let len = Bytes.length buf in
  let deadline =
    ref (if armed then Some (real_now () +. frame_timeout_s) else None)
  in
  let got = ref 0 in
  let rec loop () =
    if !got >= len then Filled
    else begin
      let timeout =
        match !deadline with
        | None -> 0.1
        | Some d -> Float.max 0.001 (d -. real_now ())
      in
      match !deadline with
      | Some d when real_now () > d -> Fill_error Timed_out
      | _ -> (
          match Unix.select [ fd ] [] [] timeout with
          | [], _, _ ->
              if !deadline = None && give_up () then Fill_error Idle_closed
              else loop ()
          | _ :: _, _, _ -> (
              match Unix.read fd buf !got (len - !got) with
              | 0 -> Fill_error (if !got = 0 then Closed else Truncated)
              | k ->
                  if !deadline = None then
                    deadline := Some (real_now () +. frame_timeout_s);
                  got := !got + k;
                  loop ()
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  loop ()
              | exception Unix.Unix_error _ ->
                  Fill_error (if !got = 0 then Closed else Truncated)))
    end
  in
  loop ()

let read_frame ?(max_frame = default_max_frame) ?(frame_timeout_s = 10.)
    ?(give_up = fun () -> false) fd =
  let header = Bytes.create 4 in
  match read_exactly ~armed:false ~frame_timeout_s ~give_up fd header with
  | Fill_error e -> Error e
  | Filled -> (
      let len =
        (Char.code (Bytes.get header 0) lsl 24)
        lor (Char.code (Bytes.get header 1) lsl 16)
        lor (Char.code (Bytes.get header 2) lsl 8)
        lor Char.code (Bytes.get header 3)
      in
      if len <= 0 || len > max_frame then Error (Oversized len)
      else
        let payload = Bytes.create len in
        match
          read_exactly ~armed:true ~frame_timeout_s
            ~give_up:(fun () -> false)
            fd payload
        with
        | Fill_error Closed -> Error Truncated
        | Fill_error e -> Error e
        | Filled -> (
            match Json.of_string (Bytes.to_string payload) with
            | Ok j -> Ok j
            | Error m -> Error (Bad_json m)))

(* ------------------------------------------------------------------ *)

let write_frame fd json =
  let payload = Json.to_string json in
  let len = String.length payload in
  let msg = Bytes.create (4 + len) in
  Bytes.set msg 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set msg 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set msg 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set msg 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 msg 4 len;
  let total = 4 + len in
  let written = ref 0 in
  while !written < total do
    written := !written + Unix.write fd msg !written (total - !written)
  done

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type work =
  | Evaluate of { program : string; n : int }
  | Sweep of { program : string; ns : int list }
  | Census of { program : string; n : int }

type request = {
  id : Json.t;
  tenant : string;
  work : work option;
  probe : [ `Health | `Stats ] option;
  config : M.Config.t;
  measure : SM.t list;
  budget : Res.Budget.t;
}

let request_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj _ ->
      let member name = Json.member name json in
      let str_opt name =
        match member name with
        | Some (Json.Str s) -> Ok (Some s)
        | None | Some Json.Null -> Ok None
        | Some _ -> Error (Printf.sprintf "request: %S must be a string" name)
      in
      let int_opt name =
        match member name with
        | Some (Json.Int i) -> Ok (Some i)
        | None | Some Json.Null -> Ok None
        | Some _ -> Error (Printf.sprintf "request: %S must be an integer" name)
      in
      let* op =
        match member "op" with
        | Some (Json.Str s) -> Ok s
        | _ -> Error "request: missing \"op\""
      in
      let id = Option.value (member "id") ~default:Json.Null in
      let* tenant = str_opt "tenant" in
      let tenant = Option.value tenant ~default:"anonymous" in
      let* variant_s = str_opt "variant" in
      let* variant =
        match variant_s with
        | None -> Ok M.Tail
        | Some s -> (
            match M.variant_of_name s with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "request: unknown variant %S" s))
      in
      let* engine_s = str_opt "engine" in
      let* engine =
        match engine_s with
        | None -> Ok M.Stepper
        | Some s -> (
            match M.engine_of_name s with
            | Some e -> Ok e
            | None -> Error (Printf.sprintf "request: unknown engine %S" s))
      in
      let* () =
        if engine = M.Vm_fast && variant <> M.Tail then
          Error "request: the vm-fast engine supports only the tail variant"
        else Ok ()
      in
      let* stack_policy_s = str_opt "stack_policy" in
      let* stack_policy =
        match stack_policy_s with
        | None -> Ok M.Safe_deletion
        | Some s -> (
            match M.Config.stack_policy_of_name s with
            | Some p -> Ok p
            | None ->
                Error (Printf.sprintf "request: unknown stack_policy %S" s))
      in
      let* budget =
        match member "budget" with
        | None | Some Json.Null -> Ok Res.Budget.unlimited
        | Some b -> Res.Budget.of_json b
      in
      let* measure =
        match member "measure" with
        | None | Some Json.Null -> Ok [ SM.Flat ]
        | Some j -> (
            match SM.list_of_json j with
            | Ok ms -> Ok ms
            | Error e -> Error ("request: " ^ e))
      in
      let* () =
        if engine = M.Vm_fast && measure <> [ SM.Flat ] then
          Error "request: the vm-fast engine measures only the flat model"
        else Ok ()
      in
      let config =
        M.Config.make ~variant ~engine ~stack_policy ()
      in
      let program_req name =
        match member "program" with
        | Some (Json.Str s) -> Ok s
        | _ -> Error (Printf.sprintf "request: %S needs a \"program\" string" name)
      in
      let mk work =
        Ok
          { id; tenant; work = Some work; probe = None; config; measure; budget }
      in
      (match op with
      | "health" ->
          Ok
            {
              id;
              tenant;
              work = None;
              probe = Some `Health;
              config;
              measure;
              budget;
            }
      | "stats" ->
          Ok
            {
              id;
              tenant;
              work = None;
              probe = Some `Stats;
              config;
              measure;
              budget;
            }
      | "evaluate" ->
          let* program = program_req "evaluate" in
          let* n = int_opt "n" in
          mk (Evaluate { program; n = Option.value n ~default:10 })
      | "census" ->
          let* program = program_req "census" in
          let* () =
            if config.M.Config.engine = M.Vm_fast then
              Error "request: the vm-fast engine cannot carry a census"
            else Ok ()
          in
          let* n = int_opt "n" in
          mk (Census { program; n = Option.value n ~default:10 })
      | "sweep" ->
          let* program = program_req "sweep" in
          let* ns =
            match member "ns" with
            | Some (Json.List l) ->
                List.fold_left
                  (fun acc v ->
                    let* acc = acc in
                    match v with
                    | Json.Int i -> Ok (i :: acc)
                    | _ -> Error "request: \"ns\" must be a list of integers")
                  (Ok []) l
                |> Result.map List.rev
            | _ -> Error "request: \"sweep\" needs an \"ns\" integer list"
          in
          let* () = if ns = [] then Error "request: empty \"ns\"" else Ok () in
          mk (Sweep { program; ns })
      | other -> Error (Printf.sprintf "request: unknown op %S" other))
  | _ -> Error "request: expected a JSON object"

let request_to_json r =
  let base =
    [
      ("id", r.id);
      ("tenant", Json.Str r.tenant);
      ("variant", Json.Str (M.variant_name r.config.M.Config.variant));
      ("engine", Json.Str (M.engine_name r.config.M.Config.engine));
      ( "stack_policy",
        Json.Str (M.Config.stack_policy_name r.config.M.Config.stack_policy) );
    ]
    @ (match SM.normalize r.measure with
      | [ SM.Flat ] -> []
      | ms -> [ ("measure", SM.list_to_json ms) ])
    @
    if Res.Budget.is_unlimited r.budget then []
    else [ ("budget", Res.Budget.to_json r.budget) ]
  in
  match (r.probe, r.work) with
  | Some `Health, _ -> Json.Obj (("op", Json.Str "health") :: base)
  | Some `Stats, _ -> Json.Obj (("op", Json.Str "stats") :: base)
  | None, Some (Evaluate { program; n }) ->
      Json.Obj
        (("op", Json.Str "evaluate")
        :: ("program", Json.Str program)
        :: ("n", Json.Int n)
        :: base)
  | None, Some (Census { program; n }) ->
      Json.Obj
        (("op", Json.Str "census")
        :: ("program", Json.Str program)
        :: ("n", Json.Int n)
        :: base)
  | None, Some (Sweep { program; ns }) ->
      Json.Obj
        (("op", Json.Str "sweep")
        :: ("program", Json.Str program)
        :: ("ns", Json.List (List.map (fun n -> Json.Int n) ns))
        :: base)
  | None, None -> Json.Obj (("op", Json.Str "health") :: base)

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let response ?(fields = []) ~id ~status ~outcome () =
  Json.Obj
    ([
       ("id", id);
       ("status", Json.Int status);
       ("outcome", Json.Str outcome);
     ]
    @ fields)

let error_response ~id message =
  response ~id ~status:2 ~outcome:"error"
    ~fields:[ ("error", Json.Str message) ]
    ()

let protocol_error_response err =
  response ~id:Json.Null ~status:2 ~outcome:"protocol-error"
    ~fields:[ ("error", Json.Str (read_error_message err)) ]
    ()

let rejected_response ~id ~reason ~retry_after_s =
  response ~id ~status:2 ~outcome:"rejected"
    ~fields:
      [
        ("error", Json.Str reason);
        ("retry_after_s", Json.Float retry_after_s);
      ]
    ()

(* ------------------------------------------------------------------ *)
(* Replies (client side)                                               *)

type reply = {
  r_status : int;
  r_outcome : string;
  r_answer : string option;
  r_error : string option;
  r_abort_tag : string option;
  r_retry_after_s : float option;
  r_json : Json.t;
}

let reply_of_json json =
  let ( let* ) = Result.bind in
  let* r_status =
    match Json.member "status" json with
    | Some (Json.Int i) -> Ok i
    | _ -> Error "reply: missing \"status\""
  in
  let* r_outcome =
    match Json.member "outcome" json with
    | Some (Json.Str s) -> Ok s
    | _ -> Error "reply: missing \"outcome\""
  in
  let str name =
    match Json.member name json with Some (Json.Str s) -> Some s | _ -> None
  in
  let r_abort_tag =
    match Json.member "abort" json with
    | Some (Json.Obj _ as a) -> (
        match Json.member "reason" a with
        | Some (Json.Str s) -> Some s
        | _ -> None)
    | _ -> None
  in
  let r_retry_after_s =
    match Json.member "retry_after_s" json with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  Ok
    {
      r_status;
      r_outcome;
      r_answer = str "answer";
      r_error = str "error";
      r_abort_tag;
      r_retry_after_s;
      r_json = json;
    }
