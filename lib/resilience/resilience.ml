module Json = Tailspace_telemetry.Telemetry.Json

(* ------------------------------------------------------------------ *)
(* Why a run ended early                                               *)

type abort_reason = Out_of_fuel of { limit : int }

let abort_reason_name (Out_of_fuel _) = "out-of-fuel"

let abort_reason_message (Out_of_fuel { limit }) =
  Printf.sprintf "out of fuel (limit %d steps)" limit

let abort_reason_to_json (Out_of_fuel { limit } as reason) : Json.t =
  Obj [ ("reason", Str (abort_reason_name reason)); ("limit", Int limit) ]

(* ------------------------------------------------------------------ *)
(* Forced-collection schedules                                         *)

module Fault = struct
  type plan = { label : string; gc_every : int option; gc_seed : int option }

  let none = { label = "none"; gc_every = None; gc_seed = None }
  let is_none p = { p with label = none.label } = none

  let derive_label p =
    let parts =
      (match p.gc_every with
      | Some k -> [ Printf.sprintf "gc-every-%d" k ]
      | None -> [])
      @
      match p.gc_seed with
      | Some s -> [ Printf.sprintf "gc-seeded-%d" s ]
      | None -> []
    in
    match parts with [] -> "none" | _ -> String.concat "+" parts

  let make ?label ?gc_every ?gc_seed () =
    let p = { label = ""; gc_every; gc_seed } in
    let label = match label with Some l -> l | None -> derive_label p in
    { p with label }

  let label p = p.label

  type cursor = { plan : plan; mutable rng : int }

  let start plan =
    {
      plan;
      (* The LCG state must start nonzero so an unseeded or zero-seeded
         cursor still walks the full sequence rather than degenerating. *)
      rng =
        (match plan.gc_seed with
        | Some s when s land 0xFFFFFFFFFFFF <> 0 -> s land 0xFFFFFFFFFFFF
        | Some _ | None -> 0x5DEECE66D);
    }

  let force_gc c ~step =
    let periodic =
      (* Fire at steps k, 2k, … — not step 0, which would make the plan
         collect k+1 times per k·n steps. *)
      match c.plan.gc_every with
      | Some k when k > 0 -> step > 0 && step mod k = 0
      | _ -> false
    in
    let seeded =
      match c.plan.gc_seed with
      | Some _ ->
          c.rng <- ((c.rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
          (c.rng lsr 16) land 7 = 0
      | None -> false
    in
    periodic || seeded
end
