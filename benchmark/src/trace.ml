module Telemetry = Tailspace_telemetry.Telemetry
module Json = Telemetry.Json

(* {1 Spans}

   Kept in memory and written once, so that writing them never lands
   inside a timed interval. Times are monotonic nanoseconds. *)

type span = {
  id : int;
  point : int;
  parent : int option;
  name : string;
  start : int;
  stop : int;
  attrs : (string * Json.t) list;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

(* Ids are handed out before a span ends so that its children, which
   end first, can name it. *)
let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t ?(attrs = []) ~id ~point ?parent name start stop =
  t.spans <- { id; point; parent; name; start; stop; attrs } :: t.spans

let add t ?attrs ~point ?parent name start stop =
  record t ?attrs ~id:(fresh t) ~point ?parent name start stop

let spans t = List.rev t.spans

(* Self time: a span's duration minus the part its children cover.
   Children of one span never overlap here (one caller, one domain). *)
let self_ns_by_name t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let c = Option.value (Hashtbl.find_opt children p) ~default:0 in
          Hashtbl.replace children p (c + (s.stop - s.start))
      | None -> ())
    t.spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt children s.id) ~default:0 in
      let prev = Option.value (Hashtbl.find_opt totals s.name) ~default:0 in
      Hashtbl.replace totals s.name (prev + (s.stop - s.start - covered)))
    t.spans;
  fun name -> Option.value (Hashtbl.find_opt totals name) ~default:0

let span_to_json origin s =
  Json.Obj
    ([
       ("id", Json.Int s.id);
       ("point", Json.Int s.point);
       ("parent", match s.parent with Some p -> Json.Int p | None -> Json.Null);
       ("name", Json.Str s.name);
       ("start_ns", Json.Int (s.start - origin));
       ("end_ns", Json.Int (s.stop - origin));
     ]
    @ s.attrs)

let write t path =
  let spans = spans t in
  let origin = List.fold_left (fun m s -> min m s.start) max_int spans in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Json.to_string (span_to_json origin s));
      output_char oc '\n')
    spans;
  close_out oc

(* {1 Step probe}

   A telemetry sink that timestamps every [Step] event and infers, from
   outside the machine, whether a collection ran at that step. Under
   the flat model alone, the lazy schedule collects at a step exactly
   when the tracked space would exceed the running peak; a collection
   that frees something emits [Gc_run], and one that frees nothing
   leaves the step's space above every earlier one (the running peak
   is the maximum of the earlier steps' spaces). Under a heavy model
   every step collects. The final configuration is always collected
   once more; {!finish} counts that. *)

type probe = {
  every_step : bool;
  mutable last : int;
  mutable max_space : int;
  mutable gc_step : int;
  mutable attempts : int;
  mutable collect_ns : int;
  plain : Stats.Hist.t;
  on_collect : int -> int -> unit;
}

let probe ?(on_collect = fun _ _ -> ()) ~every_step plain =
  {
    every_step;
    last = 0;
    max_space = -1;
    gc_step = -1;
    attempts = 0;
    collect_ns = 0;
    plain;
    on_collect;
  }

let collected p start stop =
  p.attempts <- p.attempts + 1;
  p.collect_ns <- p.collect_ns + (stop - start);
  p.on_collect start stop

let observe p ~now = function
  | Telemetry.Gc_run { step; reason; _ } ->
      if reason <> Telemetry.Gc_final then p.gc_step <- step
  | Telemetry.Step { step; space; _ } ->
      let t = now () in
      if p.every_step || p.gc_step = step || space > p.max_space then
        collected p p.last t
      else Stats.Hist.add p.plain (t - p.last);
      if space > p.max_space then p.max_space <- space;
      p.last <- t
  | _ -> ()

let sink p = observe p ~now:Stats.now_ns

(* [start] must be taken just before the run, [stop] just after. *)
let start p t = p.last <- t

let finish p ~completed stop = if completed then collected p p.last stop
