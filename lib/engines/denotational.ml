module T = Tailspace_core.Types
module Env = Tailspace_core.Types.Env
module Store = Tailspace_core.Store
module Prim = Tailspace_core.Prim
module Answer = Tailspace_core.Answer
module Machine = Tailspace_core.Machine
module Ast = Tailspace_ast.Ast

module Resilience = Tailspace_resilience.Resilience

type outcome =
  | Done of string
  | Error of string
  | Aborted of Resilience.abort_reason

exception Deno_error of string
exception Deno_abort of Resilience.abort_reason

let fail fmt = Format.kasprintf (fun m -> raise (Deno_error m)) fmt

(* The semantic domains. An expression continuation consumes an
   expressed value and a store and produces the final answer; the whole
   evaluation is written so that every continuation invocation is an
   OCaml tail call, so control context lives on the OCaml heap as
   closures — exactly the structure of the semantics. *)
type answer = T.value * Store.t
type kont = T.value -> Store.t -> answer

type state = {
  escapes : (T.loc, kont) Hashtbl.t;
      (* captured continuations, keyed by the escape's tag location *)
  ctx : Prim.ctx;
  fuel : int;
  mutable spent : int;
}

let evaluate st expr env0 store0 =
  let spend () =
    st.spent <- st.spent + 1;
    if st.spent >= st.fuel then
      raise (Deno_abort (Resilience.Out_of_fuel { limit = st.fuel }))
  in
  let rec ev e (rho : Env.t) (kappa : kont) sigma : answer =
    spend ();
    match (e : Ast.expr) with
    | Ast.Quote c -> kappa (T.value_of_const c) sigma
    | Ast.Var i -> (
        match Env.find_opt i rho with
        | None -> fail "unbound variable: %s" i
        | Some l -> (
            match Store.find_opt sigma l with
            | None -> fail "%s: dangling location" i
            | Some T.Undefined ->
                fail "%s: letrec variable used before initialization" i
            | Some v -> kappa v sigma))
    | Ast.Lambda lam ->
        let sigma, tag = Store.alloc sigma T.Unspecified in
        kappa (T.Closure (tag, lam, rho)) sigma
    | Ast.If (e0, e1, e2) ->
        ev e0 rho
          (fun v sigma ->
            match v with
            | T.Bool false -> ev e2 rho kappa sigma
            | _ -> ev e1 rho kappa sigma)
          sigma
    | Ast.Set (i, e0) ->
        ev e0 rho
          (fun v sigma ->
            match Env.find_opt i rho with
            | None -> fail "set!: unbound variable %s" i
            | Some l -> kappa T.Unspecified (Store.set sigma l v))
          sigma
    | Ast.Call (f, args) ->
        ev_list (f :: args) rho
          (fun vs sigma ->
            match vs with
            | operator :: operands -> apply operator operands kappa sigma
            | [] -> assert false)
          sigma
  and ev_list exprs rho (kappa : T.value list -> Store.t -> answer) sigma =
    match exprs with
    | [] -> kappa [] sigma
    | e :: rest ->
        ev e rho
          (fun v sigma -> ev_list rest rho (fun vs s -> kappa (v :: vs) s) sigma)
          sigma
  and apply operator operands kappa sigma =
    spend ();
    match operator with
    | T.Closure (_, lam, captured) ->
        let np = List.length lam.Ast.params in
        let nv = List.length operands in
        let ok = match lam.Ast.rest with None -> nv = np | Some _ -> nv >= np in
        if not ok then fail "arity: expected %d arguments, got %d" np nv;
        let rec take k = function
          | rest when k = 0 -> ([], rest)
          | v :: vs ->
              let direct, extra = take (k - 1) vs in
              (v :: direct, extra)
          | [] -> assert false
        in
        let direct, extra = take np operands in
        let sigma, plocs = Store.alloc_many sigma direct in
        let sigma, bindings =
          match lam.Ast.rest with
          | None -> (sigma, List.combine lam.Ast.params plocs)
          | Some r ->
              let sigma, lst = Prim.values_to_list sigma extra in
              let sigma, rl = Store.alloc sigma lst in
              (sigma, List.combine lam.Ast.params plocs @ [ (r, rl) ])
        in
        ev lam.Ast.body (Env.add_list bindings captured) kappa sigma
    | T.Escape (tag, _) -> (
        match (operands, Hashtbl.find_opt st.escapes tag) with
        | [ v ], Some saved -> saved v sigma
        | [ _ ], None -> fail "stale escape procedure"
        | vs, _ -> fail "continuation expects 1 value, got %d" (List.length vs))
    | T.Primop code -> (
        match Prim.kind code with
        | Prim.Fn fn -> (
            match fn st.ctx sigma operands with
            | sigma, v -> kappa v sigma
            | exception Prim.Prim_error m -> fail "%s" m)
        | Prim.Call_cc -> (
            match operands with
            | [ f ] ->
                let sigma, tag = Store.alloc sigma T.Unspecified in
                Hashtbl.replace st.escapes tag kappa;
                apply f [ T.Escape (tag, T.Halt) ] kappa sigma
            | _ -> fail "call/cc: expected exactly 1 argument")
        | Prim.Apply -> (
            match operands with
            | f :: (_ :: _ as rest) -> (
                let middle, last =
                  let r = List.rev rest in
                  (List.rev (List.tl r), List.hd r)
                in
                match Prim.list_to_values sigma last with
                | Some flattened -> apply f (middle @ flattened) kappa sigma
                | None -> fail "apply: last argument is not a proper list")
            | _ -> fail "apply: expected a procedure and an argument list"))
    | v -> fail "attempt to call a non-procedure (%s)" (T.tag_of_value v)
  in
  ev expr env0 (fun v sigma -> (v, sigma)) store0

module Telemetry = Tailspace_telemetry.Telemetry

let eval ?machine ?(fuel = 50_000_000) ?telemetry expr =
  (* Denotational closures capture the whole rho, so no free-variable
     set is read here. *)
  let machine =
    match machine with
    | Some m -> m
    | None -> Machine.create_with Machine.Config.default
  in
  let env0, store0 = Machine.initial machine in
  let st =
    {
      escapes = Hashtbl.create 8;
      ctx = Prim.make_ctx ~seed:(Machine.config machine).seed ();
      fuel;
      spent = 0;
    }
  in
  (* There are no machine steps here — continuation invocations spend
     the fuel — so allocation events carry the spend count as their
     step, and the summary's step counter is the total spend. *)
  let spent () = st.spent in
  let store0 =
    match telemetry with
    | None -> store0
    | Some tl ->
        Store.on_alloc store0 (fun _ v ->
            Telemetry.record_alloc tl ~step:(spent ())
              ~kind:(Machine.alloc_kind_of_value v)
              ~words:(1 + T.value_space v))
  in
  let finish outcome =
    (match telemetry with
    | Some tl -> (
        Telemetry.note_steps tl (spent ());
        match outcome with
        | Error m -> Telemetry.record_stuck tl ~step:(spent ()) ~message:m
        | Done _ | Aborted _ -> ())
    | None -> ());
    outcome
  in
  match evaluate st expr env0 store0 with
  | v, sigma ->
      (match telemetry with
      | Some tl -> Telemetry.note_peak tl (T.value_space v + Store.space sigma)
      | None -> ());
      finish (Done (Answer.to_string sigma v))
  | exception Deno_error m -> finish (Error m)
  | exception Prim.Prim_error m -> finish (Error m)
  | exception Deno_abort r -> finish (Aborted r)

let eval_program ?machine ?fuel ?telemetry ~program ~input () =
  eval ?machine ?fuel ?telemetry (Ast.Call (program, [ input ]))
