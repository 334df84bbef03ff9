module Json = Tailspace_telemetry.Telemetry.Json

(* ------------------------------------------------------------------ *)
(* The failure taxonomy                                                *)

type abort_reason =
  | Out_of_fuel of { limit : int }
  | Space_exceeded of { budget : int; live : int }
  | Deadline_exceeded of { timeout_s : float }
  | Output_exceeded of { cap : int; written : int }
  | Injected_fault of string
  | Crashed of string

let abort_reason_name = function
  | Out_of_fuel _ -> "out-of-fuel"
  | Space_exceeded _ -> "space-budget"
  | Deadline_exceeded _ -> "deadline"
  | Output_exceeded _ -> "output-cap"
  | Injected_fault _ -> "injected-fault"
  | Crashed _ -> "crashed"

let abort_reason_of_name = function
  | "out-of-fuel" -> Some (Out_of_fuel { limit = 0 })
  | "space-budget" -> Some (Space_exceeded { budget = 0; live = 0 })
  | "deadline" -> Some (Deadline_exceeded { timeout_s = 0. })
  | "output-cap" -> Some (Output_exceeded { cap = 0; written = 0 })
  | "injected-fault" -> Some (Injected_fault "")
  | "crashed" -> Some (Crashed "")
  | _ -> None

let abort_reason_message = function
  | Out_of_fuel { limit } -> Printf.sprintf "out of fuel (limit %d steps)" limit
  | Space_exceeded { budget; live } ->
      Printf.sprintf "space budget exceeded (%d live words > %d budgeted)" live
        budget
  | Deadline_exceeded { timeout_s } ->
      Printf.sprintf "deadline exceeded (%.3gs timeout)" timeout_s
  | Output_exceeded { cap; written } ->
      Printf.sprintf "output cap exceeded (%d bytes written, cap %d)" written
        cap
  | Injected_fault m -> Printf.sprintf "injected fault: %s" m
  | Crashed m -> Printf.sprintf "crashed: %s" m

let abort_reason_to_json reason : Json.t =
  let tag = ("reason", Json.Str (abort_reason_name reason)) in
  match reason with
  | Out_of_fuel { limit } -> Obj [ tag; ("limit", Int limit) ]
  | Space_exceeded { budget; live } ->
      Obj [ tag; ("budget", Int budget); ("live", Int live) ]
  | Deadline_exceeded { timeout_s } ->
      Obj [ tag; ("timeout_s", Float timeout_s) ]
  | Output_exceeded { cap; written } ->
      Obj [ tag; ("cap", Int cap); ("written", Int written) ]
  | Injected_fault m -> Obj [ tag; ("fault", Str m) ]
  | Crashed m -> Obj [ tag; ("exception", Str m) ]

(* ------------------------------------------------------------------ *)
(* Wall clock                                                          *)

module Clock = struct
  let real () = Unix.gettimeofday ()

  (* The source is a plain ref: tests install a fake clock before
     spawning any machinery that reads it, so the benign race on the
     cell itself never matters in practice. *)
  let source = ref real
  let now () = !source ()
  let set f = source := f
  let reset () = source := real

  let with_source f k =
    let saved = !source in
    source := f;
    Fun.protect ~finally:(fun () -> source := saved) k
end

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)

module Budget = struct
  type t = {
    fuel : int option;
    space_words : int option;
    timeout_s : float option;
    output_bytes : int option;
  }

  let unlimited =
    { fuel = None; space_words = None; timeout_s = None; output_bytes = None }

  let make ?fuel ?space_words ?timeout_s ?output_bytes () =
    { fuel; space_words; timeout_s; output_bytes }
end

(* ------------------------------------------------------------------ *)
(* Enforcement                                                         *)

module Guard = struct
  type t = {
    mutable fuel_limit : int;
    space_words : int option;
    timeout_s : float option;
    deadline : float option;
    output_bytes : int option;
    mutable checks : int;  (* throttles the clock reads *)
  }

  let start ?default_fuel (budget : Budget.t) =
    let fuel_limit =
      match (budget.fuel, default_fuel) with
      | Some f, _ -> f
      | None, Some f -> f
      | None, None -> max_int
    in
    {
      fuel_limit;
      space_words = budget.space_words;
      timeout_s = budget.timeout_s;
      deadline = Option.map (fun s -> Clock.now () +. s) budget.timeout_s;
      output_bytes = budget.output_bytes;
      checks = 0;
    }

  let fuel_limit t = t.fuel_limit
  let cap_fuel t limit = if limit < t.fuel_limit then t.fuel_limit <- limit
  let space_budget t = t.space_words

  let check t ~steps ~output_bytes =
    if steps >= t.fuel_limit then Some (Out_of_fuel { limit = t.fuel_limit })
    else
      let over_deadline =
        match t.deadline with
        | None -> false
        | Some d ->
            let probe = t.checks land 255 = 0 in
            t.checks <- t.checks + 1;
            probe && Clock.now () > d
      in
      if over_deadline then
        Some
          (Deadline_exceeded
             { timeout_s = Option.value t.timeout_s ~default:0. })
      else
        match t.output_bytes with
        | Some cap when output_bytes > cap ->
            Some (Output_exceeded { cap; written = output_bytes })
        | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)

module Fault = struct
  type plan = {
    label : string;
    gc_at : int list;
    gc_every : int option;
    gc_seed : int option;
    fail_alloc : int option;
    fuel_drop : (int * int) option;
  }

  let none =
    {
      label = "none";
      gc_at = [];
      gc_every = None;
      gc_seed = None;
      fail_alloc = None;
      fuel_drop = None;
    }

  let is_none p = { p with label = none.label } = none

  let derive_label p =
    let parts =
      (if p.gc_at = [] then []
       else [ Printf.sprintf "gc-at-%d-steps" (List.length p.gc_at) ])
      @ (match p.gc_every with
        | Some k -> [ Printf.sprintf "gc-every-%d" k ]
        | None -> [])
      @ (match p.gc_seed with
        | Some s -> [ Printf.sprintf "gc-seeded-%d" s ]
        | None -> [])
      @ (match p.fail_alloc with
        | Some n -> [ Printf.sprintf "fail-alloc-%d" n ]
        | None -> [])
      @
      match p.fuel_drop with
      | Some (s, k) -> [ Printf.sprintf "fuel-drop-%d@%d" k s ]
      | None -> []
    in
    match parts with [] -> "none" | _ -> String.concat "+" parts

  let make ?label ?(gc_at = []) ?gc_every ?gc_seed ?fail_alloc ?fuel_drop () =
    let p =
      { label = ""; gc_at; gc_every; gc_seed; fail_alloc; fuel_drop }
    in
    let label = match label with Some l -> l | None -> derive_label p in
    { p with label }

  let label p = p.label

  exception Injected of string

  type cursor = {
    plan : plan;
    gc_steps : (int, unit) Hashtbl.t;
    mutable rng : int;
    mutable allocs : int;
    mutable fuel_dropped : bool;
  }

  let start plan =
    let gc_steps = Hashtbl.create (List.length plan.gc_at) in
    List.iter (fun s -> Hashtbl.replace gc_steps s ()) plan.gc_at;
    {
      plan;
      gc_steps;
      (* The LCG state must start nonzero so an unseeded or zero-seeded
         cursor still walks the full sequence rather than degenerating. *)
      rng =
        (match plan.gc_seed with
        | Some s when s land 0xFFFFFFFFFFFF <> 0 -> s land 0xFFFFFFFFFFFF
        | Some _ | None -> 0x5DEECE66D);
      allocs = 0;
      fuel_dropped = false;
    }

  let force_gc c ~step =
    let explicit = Hashtbl.mem c.gc_steps step in
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
    explicit || periodic || seeded

  let fuel_drop c ~step =
    match c.plan.fuel_drop with
    | Some (s, remaining) when (not c.fuel_dropped) && step >= s ->
        c.fuel_dropped <- true;
        Some remaining
    | _ -> None

  let observes_alloc p = p.fail_alloc <> None

  let on_alloc c =
    c.allocs <- c.allocs + 1;
    match c.plan.fail_alloc with
    | Some n when c.allocs = n ->
        raise (Injected (Printf.sprintf "allocation %d failed" n))
    | _ -> ()
end
