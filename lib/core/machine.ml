module Ast = Tailspace_ast.Ast
module Expand = Tailspace_expander.Expand
module Reader = Tailspace_sexp.Reader
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience
module Annot = Tailspace_analysis.Annot
module Prov = Tailspace_provenance.Provenance
open Types

type variant = Tail | Gc | Stack | Evlis | Free | Sfs

let all_variants = [ Tail; Gc; Stack; Evlis; Free; Sfs ]

let variant_name = function
  | Tail -> "tail"
  | Gc -> "gc"
  | Stack -> "stack"
  | Evlis -> "evlis"
  | Free -> "free"
  | Sfs -> "sfs"

let variant_of_name = function
  | "tail" -> Some Tail
  | "gc" -> Some Gc
  | "stack" -> Some Stack
  | "evlis" -> Some Evlis
  | "free" -> Some Free
  | "sfs" -> Some Sfs
  | _ -> None

type perm_policy = Left_to_right | Right_to_left | Seeded of int
type stack_policy = Algol | Safe_deletion
type return_env = Closure_env | Register_env
type engine = Stepper | Vm_fast

module Config = struct
  type t = {
    variant : variant;
    perm : perm_policy;
    stack_policy : stack_policy;
    return_env : return_env;
    evlis_drop_at_creation : bool;
    seed : int;
    engine : engine;
  }

  let default =
    {
      variant = Tail;
      perm = Left_to_right;
      stack_policy = Safe_deletion;
      return_env = Closure_env;
      evlis_drop_at_creation = true;
      seed = 24054;
      engine = Stepper;
    }

  let make ?(variant = default.variant) ?(perm = default.perm)
      ?(stack_policy = default.stack_policy) ?(return_env = default.return_env)
      ?(evlis_drop_at_creation = default.evlis_drop_at_creation)
      ?(seed = default.seed) ?(engine = default.engine) () =
    { variant; perm; stack_policy; return_env; evlis_drop_at_creation; seed;
      engine }
end

type t = {
  variant : variant;
  perm : perm_policy;
  stack_policy : stack_policy;
  return_env : return_env;
  evlis_drop_at_creation : bool;
  seed : int;
  engine : engine;
  annot : Annot.t;
      (* the only source of free-variable sets and site ids: every
         expression is recorded before the machine steps it *)
  mutable order_rng : int;
      (* the [Seeded] order generator, restarted from the seed at every
         run; [random] draws from [ctx] instead *)
  mutable prov : Census.t option;
      (* census of the run in progress; installed by [exec] when the
         caller asks for provenance, cleared otherwise *)
  mutable track_sites : bool;
      (* thread annotation site ids into continuation frames. On when
         provenance is on, and also when telemetry records
         configurations (so stuck traces can name the offending site)
         — never affects sizes, steps, or peaks *)
  ctx : Prim.ctx;
  mutable genv : Env.t;
  mutable gstore : Store.t;
}

let variant t = t.variant
let initial t = (t.genv, t.gstore)

let config t : Config.t =
  {
    variant = t.variant;
    perm = t.perm;
    stack_policy = t.stack_policy;
    return_env = t.return_env;
    evlis_drop_at_creation = t.evlis_drop_at_creation;
    seed = t.seed;
    engine = t.engine;
  }

let annotations t = Some t.annot

type config = {
  control : [ `Expr of Ast.expr | `Value of value ];
  env : Env.t;
  cont : cont;
  store : Store.t;
}

type step_result =
  | Next of config
  | Final of value * Store.t
  | Stuck_state of string

(* ------------------------------------------------------------------ *)
(* Argument evaluation order: the permutation pi. A call's
   subexpressions are paired with their positions (the operator is 0)
   and listed in evaluation order.                                     *)

let rec indexed i = function
  | [] -> []
  | e :: es -> (i, e) :: indexed (i + 1) es

let rec rev_indexed i acc = function
  | [] -> acc
  | e :: es -> rev_indexed (i + 1) ((i, e) :: acc) es

(* Every run draws its argument order and its [random] numbers afresh
   from the seeds, so what a run answers does not depend on the runs
   the machine made before it. *)
let restart_generators t =
  t.ctx.rng <- t.seed;
  match t.perm with
  | Seeded s -> t.order_rng <- s
  | Left_to_right | Right_to_left -> ()

let next_order t bound =
  (* The 48-bit LCG of [random] (POSIX drand48's constants). *)
  t.order_rng <- ((t.order_rng * 0x5DEECE66D) + 0xB) land 0xFFFFFFFFFFFF;
  t.order_rng mod bound

let eval_order t f args =
  match t.perm with
  | Left_to_right -> (0, f) :: indexed 1 args
  | Right_to_left -> rev_indexed 1 [ (0, f) ] args
  | Seeded _ ->
      (* Fisher-Yates driven by the order generator, advanced per call,
         so each call in a run gets its own order but the whole run is
         reproducible from the seed. *)
      let a = Array.of_list ((0, f) :: indexed 1 args) in
      for i = Array.length a - 1 downto 1 do
        let j = next_order t (i + 1) in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      Array.to_list a

(* The operator and the operands, in position order, from a [Push]
   frame's [evaluated] (newest first) once nothing remains. Under left
   to right the positions descend to the operator's 0, under right to
   left they ascend from it; a seeded order is sorted first. *)
let rec operands_descending vals = function
  | [ (_, operator) ] -> (operator, vals)
  | (_, v) :: rest -> operands_descending (v :: vals) rest
  | [] -> assert false

let operands_ascending = function
  | (_, operator) :: operands -> (operator, List.map snd operands)
  | [] -> assert false

let operator_and_operands t evaluated =
  match t.perm with
  | Left_to_right -> operands_descending [] evaluated
  | Right_to_left -> operands_ascending evaluated
  | Seeded _ ->
      operands_ascending
        (List.sort (fun (i, _) (j, _) -> Int.compare i j) evaluated)

(* ------------------------------------------------------------------ *)
(* Annotation lookups. [eval_in] and [run_measured] record every
   expression before the machine steps it, so a lookup never misses.   *)

let unrecorded e = invalid_arg ("Machine: unrecorded node " ^ Ast.to_string e)

let fv_lambda t e =
  match Annot.free_vars t.annot e with Some s -> s | None -> unrecorded e

let fv_branches t e =
  match Annot.branch t.annot e with Some s -> s | None -> unrecorded e

(* The I_sfs push sets for a call: the restriction for the frame created
   now plus one set per later frame (threaded through the continuation
   as [fv_rest], one set per element of [remaining]). *)
let fv_call t e remaining =
  match Annot.call t.annot e with
  | None -> unrecorded e
  | Some ci -> (
      match t.perm with
      | Left_to_right -> (ci.Annot.ltr_first, ci.Annot.ltr_rest)
      | Right_to_left -> (ci.Annot.rtl_first, ci.Annot.rtl_rest)
      | Seeded _ -> Annot.seeded_sets ci (List.map fst remaining))

(* Provenance site of an expression: a table lookup when sites are being
   tracked this run, [-1] (one branch) otherwise. *)
let site_of t e =
  if not t.track_sites then -1
  else match Annot.site_id t.annot e with Some s -> s | None -> -1

(* Declare the provenance of the allocations the current rule is about
   to perform. No-op (one branch) when provenance is off. *)
let note_alloc_site t ~site ~phase =
  match t.prov with
  | None -> ()
  | Some c -> Census.set_alloc_site c ~site ~phase

(* ------------------------------------------------------------------ *)
(* Reduction rules (configurations whose first component is an
   expression).                                                        *)

let step_expr t config e =
  let { env; cont; store; _ } = config in
  match (e : Ast.expr) with
  | Ast.Quote c -> Next { config with control = `Value (value_of_const c) }
  | Ast.Var i -> (
      match Env.find_opt i env with
      | None -> Stuck_state (Printf.sprintf "unbound variable: %s" i)
      | Some l -> (
          match Store.find_opt store l with
          | None ->
              Stuck_state
                (Printf.sprintf "%s: location deleted by stack allocation" i)
          | Some Undefined ->
              Stuck_state
                (Printf.sprintf "%s: letrec variable used before initialization" i)
          | Some v -> Next { config with control = `Value v }))
  | Ast.Lambda lam ->
      let captured =
        match t.variant with
        | Free | Sfs -> Env.restrict env (fv_lambda t e)
        | Tail | Gc | Stack | Evlis -> env
      in
      note_alloc_site t ~site:(site_of t e) ~phase:(Some Prov.P_closure);
      let store, tag = Store.alloc store Unspecified in
      Next { config with control = `Value (Closure (tag, lam, captured)); store }
  | Ast.If (e0, e1, e2) ->
      let saved =
        match t.variant with
        | Sfs -> Env.restrict env (fv_branches t e)
        | Tail | Gc | Stack | Evlis | Free -> env
      in
      Next
        {
          config with
          control = `Expr e0;
          cont = select ~site:(site_of t e) ~e1 ~e2 ~env:saved ~next:cont ();
        }
  | Ast.Set (i, e0) ->
      let saved =
        match t.variant with
        | Sfs -> Env.restrict env (Ast.Iset.singleton i)
        | Tail | Gc | Stack | Evlis | Free -> env
      in
      Next
        {
          config with
          control = `Expr e0;
          cont = assign ~site:(site_of t e) ~id:i ~env:saved ~next:cont ();
        }
  | Ast.Call (f, args) -> (
      match eval_order t f args with
      | [] -> assert false
      | (i0, e0) :: remaining ->
          (* Evlis tail recursion: the environment need not survive the
             evaluation of the call's last subexpression (§9). For a
             single-subexpression call the operator is that last
             subexpression, so the frame is born empty — exactly what the
             I_sfs restriction to FV(no remaining exprs) = {} gives, and
             what Theorem 25's tail/evlis separator requires. *)
          let frame_env, fv_rest =
            match t.variant with
            | Sfs ->
                let first, rest = fv_call t e remaining in
                (Env.restrict env first, rest)
            | Evlis -> (
                match remaining with
                | [] when t.evlis_drop_at_creation -> (Env.empty, [])
                | _ -> (env, []))
            | Tail | Gc | Stack | Free -> (env, [])
          in
          Next
            {
              config with
              control = `Expr e0;
              cont =
                push ~fv_rest ~site:(site_of t e) ~pending:i0 ~remaining
                  ~evaluated:[] ~env:frame_env ~next:cont ();
            })

(* ------------------------------------------------------------------ *)
(* Procedure invocation (the call rules).                              *)

(* Bind each parameter to a fresh cell holding its argument, in order:
   the callee's store and environment, the cells newest first when
   [keep_locs] (the I_stack deletion set) and the arguments left for a
   rest parameter. The caller has checked the arity. *)
let rec bind_args ~keep_locs store env rev_locs params vals =
  match (params, vals) with
  | p :: ps, v :: vs ->
      let store, l = Store.alloc store v in
      let rev_locs = if keep_locs then l :: rev_locs else rev_locs in
      bind_args ~keep_locs store (Env.add p l env) rev_locs ps vs
  | [], extra -> (store, env, rev_locs, extra)
  | _ :: _, [] -> assert false

(* [site] is the provenance site of the call expression whose frame we
   just popped: argument ribs, rest lists, escape tags, primitive
   allocations, and any I_gc/I_stack return frame are all charged to the
   call site. *)
let rec invoke ?(site = -1) t config v0 vals next =
  let { store; _ } = config in
  match v0 with
  | Closure (_, lam, captured) ->
      let arity_ok =
        match lam.rest with
        | None -> List.compare_lengths lam.params vals = 0
        | Some _ -> List.compare_lengths lam.params vals <= 0
      in
      if not arity_ok then
        Stuck_state
          (Printf.sprintf "arity: procedure expects %s%d arguments, got %d"
             (match lam.rest with None -> "" | Some _ -> "at least ")
             (List.length lam.params) (List.length vals))
      else
        let keep_locs = match t.variant with Stack -> true | _ -> false in
        note_alloc_site t ~site ~phase:(Some Prov.P_rib);
        let store, callee_env, rev_locs, extra =
          bind_args ~keep_locs store captured [] lam.params vals
        in
        let store, callee_env, rev_locs =
          match lam.rest with
          | None -> (store, callee_env, rev_locs)
          | Some r ->
              note_alloc_site t ~site ~phase:None;
              let store, lst = Prim.values_to_list store extra in
              note_alloc_site t ~site ~phase:(Some Prov.P_rib);
              let store, rl = Store.alloc store lst in
              (store, Env.add r rl callee_env, rl :: rev_locs)
        in
        (* I_gc and I_stack return frames capture the callee's closure
           environment (the saved static link), not the caller's dynamic
           register environment. The paper's return:(rho', kappa) is
           typographically ambiguous, but only this reading validates
           Theorem 25's first separation: with the caller's register env
           the frame for a tail call pins the caller's locals (the vector
           in the separator), making S_gc quadratic and erasing the
           S_stack/S_gc gap. See DESIGN.md, "Faithfulness notes". *)
        let frame_env =
          match t.return_env with
          | Closure_env -> captured
          | Register_env -> config.env
        in
        let cont' =
          match t.variant with
          | Tail | Evlis | Free | Sfs -> next
          | Gc -> return_gc ~site ~env:frame_env ~next ()
          | Stack ->
              return_stack ~site ~dels:(List.rev rev_locs) ~env:frame_env
                ~next ()
        in
        Next { control = `Expr lam.body; env = callee_env; cont = cont'; store }
  | Escape (_, saved) -> (
      match vals with
      | [ v ] -> Next { config with control = `Value v; env = Env.empty; cont = saved }
      | _ ->
          Stuck_state
            (Printf.sprintf "continuation expects 1 value, got %d"
               (List.length vals)))
  | Primop code -> (
      match Prim.kind code with
      | Prim.Fn fn -> (
          note_alloc_site t ~site ~phase:None;
          match fn t.ctx store vals with
          | store, v -> Next { config with control = `Value v; cont = next; store }
          | exception Prim.Prim_error m -> Stuck_state m
          | exception Invalid_argument m -> Stuck_state m)
      | Prim.Apply -> (
          match vals with
          | f :: (_ :: _ as rest) -> (
              let middle, last =
                let r = List.rev rest in
                (List.rev (List.tl r), List.hd r)
              in
              match Prim.list_to_values store last with
              | Some flattened ->
                  invoke ~site t config f (middle @ flattened) next
              | None -> Stuck_state "apply: last argument is not a proper list")
          | _ -> Stuck_state "apply: expected a procedure and an argument list")
      | Prim.Call_cc -> (
          match vals with
          | [ f ] ->
              note_alloc_site t ~site ~phase:(Some Prov.P_escape);
              let store, tag = Store.alloc store Unspecified in
              let escape = Escape (tag, next) in
              invoke ~site t { config with store } f [ escape ] next
          | _ -> Stuck_state "call/cc: expected exactly 1 argument"))
  | v ->
      Stuck_state
        (Printf.sprintf "attempt to call a non-procedure (%s)" (tag_of_value v))

(* ------------------------------------------------------------------ *)
(* The I_stack deletion rule.                                          *)

let delete_frame t config v dels frame_env next =
  let { store; _ } = config in
  let table_of locs =
    let h = Hashtbl.create (List.length locs) in
    List.iter (fun l -> Hashtbl.replace h l ()) locs;
    h
  in
  let hits dels =
    let retained = Store.remove_all store dels in
    Gc.occurs_in_retained ~candidates:(table_of dels) ~value:v ~retained
  in
  match t.stack_policy with
  | Algol ->
      let h = hits dels in
      if Hashtbl.length h > 0 then
        Stuck_state
          "stack deallocation would create a dangling pointer (I_stack with \
           Algol policy)"
      else
        Next
          {
            control = `Value v;
            env = frame_env;
            cont = next;
            store = Store.remove_all store dels;
          }
  | Safe_deletion ->
      (* Shrink A to its largest safe subset: drop any location that
         still occurs in the retained configuration and retry. *)
      let rec shrink dels =
        if dels = [] then []
        else
          let h = hits dels in
          if Hashtbl.length h = 0 then dels
          else shrink (List.filter (fun l -> not (Hashtbl.mem h l)) dels)
      in
      let safe = shrink dels in
      Next
        {
          control = `Value v;
          env = frame_env;
          cont = next;
          store = Store.remove_all store safe;
        }

(* ------------------------------------------------------------------ *)
(* Continuation rules (configurations whose first component is a
   value).                                                             *)

let step_value t config v =
  let { cont; store; _ } = config in
  match cont with
  | Halt -> Final (v, store)
  | Select { e1; e2; env; next; _ } ->
      let branch = match v with Bool false -> e2 | _ -> e1 in
      Next { config with control = `Expr branch; env; cont = next }
  | Assign { id; env; next; _ } -> (
      match Env.find_opt id env with
      | None -> Stuck_state (Printf.sprintf "set!: unbound variable %s" id)
      | Some l -> (
          match Store.mem store l with
          | false ->
              Stuck_state
                (Printf.sprintf "set! %s: location deleted by stack allocation" id)
          | true ->
              Next
                {
                  control = `Value Unspecified;
                  env;
                  cont = next;
                  store = Store.set store l v;
                }))
  | Push { pending; remaining; evaluated; fv_rest; env; next; site; _ } -> (
      let evaluated = (pending, v) :: evaluated in
      match remaining with
      | (j, e) :: rest ->
          let frame_env, fv_rest' =
            match t.variant with
            | Sfs -> (
                (* The precomputed sets line up with [remaining]: the
                   head is this frame's restriction, the tail travels on
                   for the frames after it. *)
                match fv_rest with
                | s :: srest -> (Env.restrict env s, srest)
                | [] -> assert false)
            | Evlis -> ((match rest with [] -> Env.empty | _ -> env), [])
            | Tail | Gc | Stack | Free -> (env, [])
          in
          Next
            {
              config with
              control = `Expr e;
              env;
              cont =
                push ~fv_rest:fv_rest' ~site ~pending:j ~remaining:rest
                  ~evaluated ~env:frame_env ~next ();
            }
      | [] ->
          let operator, vals = operator_and_operands t evaluated in
          Next
            {
              config with
              control = `Value operator;
              env;
              cont = call ~site ~vals ~next ();
            })
  | Call { vals; next; site; _ } -> invoke ~site t config v vals next
  | Return { env; next; _ } ->
      Next { config with control = `Value v; env; cont = next }
  | Return_stack { dels; env; next; _ } -> delete_frame t config v dels env next

let step t config =
  match config.control with
  | `Expr e -> step_expr t config e
  | `Value v -> step_value t config v

(* Whether a value holds a store location, in constant time
   ([value_locs v = []] would list a closure's whole environment). *)
let holds_no_locs = function
  | Bool _ | Int _ | Sym _ | Str _ | Char _ | Nil | Unspecified | Undefined
  | Primop _ ->
      true
  | Pair _ | Vector _ | Closure _ | Escape _ -> false

(* For [step t before = Next after]: true only when every location
   [before] holds is still held by [after] and every cell [after]'s
   store adds is held by [after], so a collection of [after] frees
   nothing when one of [before] would have freed nothing.
   - Every expression rule keeps the register, only grows the
     continuation, and only appends to the store (a lambda's tag, held
     by the closure it returns).
   - A push-frame pop makes the frame's environment the register and
     moves the value into the next frame: nothing is dropped when that
     environment already is the register.
   - A select pop with the same register drops only the test value.
   - A call pop whose operator and operands hold no locations and which
     leaves the store physically unchanged is a primitive return (or an
     [apply] that reaches one; [call/cc] always allocates its escape
     tag): it keeps the register and the rest of the continuation, and
     its result can only hold cells already held.
   Assignments, closure calls, escapes and I_gc/I_stack returns may drop
   something, and so does a primitive that mutates or allocates. *)
let drops_nothing before after =
  match before.control with
  | `Expr _ -> true
  | `Value v -> (
      match before.cont with
      | Push { env; _ } -> env == before.env
      | Select { env; _ } -> env == before.env && holds_no_locs v
      | Call { vals; _ } ->
          after.store == before.store && holds_no_locs v
          && List.for_all holds_no_locs vals
      | Halt | Assign _ | Return _ | Return_stack _ -> false)

(* ------------------------------------------------------------------ *)
(* Space measurement (Definition 23 via Definition 21).                *)

let flat_space config =
  let base =
    Env.cardinal config.env + cont_space config.cont + Store.space config.store
  in
  match config.control with
  | `Expr _ -> base
  | `Value v -> base + value_space v

let collect ~world ~history config =
  let value = match config.control with `Expr _ -> None | `Value v -> Some v in
  let store, reclaimed =
    Gc.collect ~world ~history ?value ~env:config.env ~cont:config.cont
      config.store
  in
  ({ config with store }, reclaimed)

(* ------------------------------------------------------------------ *)
(* Evaluation without measurement (prelude, tests).                    *)

let eval_in t ~env ~store expr =
  (* Recording is incremental on physical identity, so re-evaluating a
     program (or a fresh [Call] wrapper around one) only annotates the
     genuinely new nodes. *)
  Annot.record t.annot expr;
  restart_generators t;
  let rec loop config fuel =
    if fuel <= 0 then Error "out of fuel"
    else
      match step t config with
      | Next c -> loop c (fuel - 1)
      | Final (v, store) -> Ok (v, store)
      | Stuck_state m -> Error m
  in
  loop { control = `Expr expr; env; cont = Halt; store } 50_000_000

let eval_global t expr = eval_in t ~env:t.genv ~store:t.gstore expr

let define_global t name expr =
  let store, l = Store.alloc t.gstore Undefined in
  let env = Env.add name l t.genv in
  match eval_in t ~env ~store expr with
  | Ok (v, store) ->
      t.genv <- env;
      t.gstore <- Store.set store l v;
      Ok ()
  | Error m -> Error m

(* ------------------------------------------------------------------ *)
(* Initial environment: primitives plus a Scheme-level prelude.        *)

let prelude_source =
  {scheme|
(define (length lst)
  (define (loop lst acc)
    (if (null? lst) acc (loop (cdr lst) (+ acc 1))))
  (loop lst 0))
(define (list-ref lst k)
  (if (zero? k) (car lst) (list-ref (cdr lst) (- k 1))))
(define (list-tail lst k)
  (if (zero? k) lst (list-tail (cdr lst) (- k 1))))
(define (append2 a b)
  (if (null? a) b (cons (car a) (append2 (cdr a) b))))
(define (append . ls)
  (if (null? ls)
      '()
      (if (null? (cdr ls))
          (car ls)
          (append2 (car ls) (apply append (cdr ls))))))
(define (reverse lst)
  (define (loop lst acc)
    (if (null? lst) acc (loop (cdr lst) (cons (car lst) acc))))
  (loop lst '()))
(define (map f lst)
  (if (null? lst) '() (cons (f (car lst)) (map f (cdr lst)))))
(define (for-each f lst)
  (if (null? lst)
      #!unspecified
      (begin (f (car lst)) (for-each f (cdr lst)))))
(define (filter keep? lst)
  (if (null? lst)
      '()
      (if (keep? (car lst))
          (cons (car lst) (filter keep? (cdr lst)))
          (filter keep? (cdr lst)))))
(define (fold-left f acc lst)
  (if (null? lst) acc (fold-left f (f acc (car lst)) (cdr lst))))
(define (fold-right f init lst)
  (if (null? lst) init (f (car lst) (fold-right f init (cdr lst)))))
(define (memq x lst)
  (if (null? lst) #f (if (eq? x (car lst)) lst (memq x (cdr lst)))))
(define (memv x lst)
  (if (null? lst) #f (if (eqv? x (car lst)) lst (memv x (cdr lst)))))
(define (member x lst)
  (if (null? lst) #f (if (equal? x (car lst)) lst (member x (cdr lst)))))
(define (assq x lst)
  (if (null? lst) #f (if (eq? x (car (car lst))) (car lst) (assq x (cdr lst)))))
(define (assv x lst)
  (if (null? lst) #f (if (eqv? x (car (car lst))) (car lst) (assv x (cdr lst)))))
(define (assoc x lst)
  (if (null? lst) #f (if (equal? x (car (car lst))) (car lst) (assoc x (cdr lst)))))
(define (list? x)
  (if (null? x) #t (if (pair? x) (list? (cdr x)) #f)))
(define (caar p) (car (car p)))
(define (cadr p) (car (cdr p)))
(define (cdar p) (cdr (car p)))
(define (cddr p) (cdr (cdr p)))
(define (caddr p) (car (cddr p)))
(define (cdddr p) (cdr (cddr p)))
(define (list->vector lst)
  (define (fill! v i l)
    (if (null? l) v (begin (vector-set! v i (car l)) (fill! v (+ i 1) (cdr l)))))
  (fill! (make-vector (length lst)) 0 lst))
(define (vector->list v)
  (define (loop i acc)
    (if (< i 0) acc (loop (- i 1) (cons (vector-ref v i) acc))))
  (loop (- (vector-length v) 1) '()))
(define (gcd2 a b) (if (zero? b) (abs a) (gcd2 b (modulo a b))))
(define (gcd . xs) (fold-left gcd2 0 xs))
(define (%make-promise thunk)
  (let ((done #f) (value #f))
    (lambda ()
      (if done
          value
          (begin (set! value (thunk))
                 (set! done #t)
                 value)))))
(define (force promise) (promise))
|scheme}

let create_with (cfg : Config.t) =
  let t =
    {
      variant = cfg.variant;
      perm = cfg.perm;
      stack_policy = cfg.stack_policy;
      return_env = cfg.return_env;
      evlis_drop_at_creation = cfg.evlis_drop_at_creation;
      seed = cfg.seed;
      engine = cfg.engine;
      annot = Annot.create ();
      order_rng = 0;
      prov = None;
      track_sites = false;
      ctx = Prim.make_ctx ~seed:cfg.seed ();
      genv = Env.empty;
      gstore = Store.empty;
    }
  in
  let genv, gstore =
    List.fold_left
      (fun (env, store) (name, v) ->
        let store, l = Store.alloc store v in
        (Env.add name l env, store))
      (Env.empty, Store.empty)
      (Prim.initial_bindings ())
  in
  (* Rebase twice so that every trace visits each global binding once
     (see Env, Gc). This first rebase gives the prelude closures one
     shared primitive base, leaving only earlier prelude names in their
     overlays; it relies on no prelude definition shadowing a
     primitive, which would make the collector pin the dead primitive
     cell. *)
  t.genv <- Env.rebase genv;
  t.gstore <- gstore;
  List.iter
    (fun form ->
      match Expand.top_level_define form with
      | Some (name, expr) -> (
          match define_global t name expr with
          | Ok () -> ()
          | Error m -> failwith (Printf.sprintf "prelude: %s: %s" name m))
      | None -> failwith "prelude: expected only definitions")
    (Reader.parse_all_exn prelude_source);
  (* The final rebase gives every run-time environment one shared
     global base. *)
  t.genv <- Env.rebase t.genv;
  t

(* ------------------------------------------------------------------ *)
(* The measured loop.                                                  *)

type outcome =
  | Done of { value : Types.value; store : Store.t; answer : string }
  | Stuck of string
  | Aborted of {
      reason : Resilience.abort_reason;
      steps : int;
      peak_space : int;
    }

type result = {
  outcome : outcome;
  steps : int;
  peaks : (Space_model.t * int) list;
  program_size : int;
  gc_runs : int;
  output : string;
}

let peak_of r model =
  List.find_map
    (fun (m, p) -> if Space_model.equal m model then Some p else None)
    r.peaks

(* Flat is always measured (it drives the lazy-GC schedule), so the
   flat accessor is total. *)
let peak_space r = Option.value (peak_of r Space_model.Flat) ~default:0
let peak_linked r = peak_of r Space_model.Linked
let peak_log r = peak_of r Space_model.Log
let space_consumption r = r.program_size + peak_space r

(* A one-line description of a configuration, for tracing and for the
   telemetry ring buffer. The line names the provenance site of the
   redex — the expression being reduced, or for value configurations
   the expression that pushed the top frame — so a stuck-state dump
   points at source, not just at a frame depth. *)
let describe_config annot config =
  let span e =
    let s = Ast.to_string e in
    if String.length s > 48 then String.sub s 0 45 ^ "..." else s
  in
  let top_site = function
    | Halt -> -1
    | Select { site; _ }
    | Assign { site; _ }
    | Push { site; _ }
    | Call { site; _ }
    | Return { site; _ }
    | Return_stack { site; _ } -> site
  in
  let control =
    match config.control with
    | `Expr e -> (
        match Annot.site_id annot e with
        | Some site -> Printf.sprintf "E@s%d %s" site (span e)
        | None -> "E " ^ span e)
    | `Value v -> (
        let base = "V " ^ tag_of_value v in
        let site = top_site config.cont in
        if site < 0 then base
        else
          match Annot.site_expr annot site with
          | Some e -> Printf.sprintf "%s @s%d %s" base site (span e)
          | None -> Printf.sprintf "%s @s%d" base site)
  in
  Printf.sprintf "%-50s |rho|=%-4d k-depth=%-4d space=%d" control
    (Env.cardinal config.env) (cont_depth config.cont) (flat_space config)

(* Classification of store allocations for the telemetry counters. *)
let alloc_kind_of_value : value -> Telemetry.alloc_kind = function
  | Bool _ | Sym _ | Char _ | Nil | Unspecified | Undefined | Primop _ ->
      Telemetry.K_atom
  | Int _ -> Telemetry.K_int
  | Str _ -> Telemetry.K_string
  | Pair _ -> Telemetry.K_pair
  | Vector _ -> Telemetry.K_vector
  | Closure _ -> Telemetry.K_closure
  | Escape _ -> Telemetry.K_escape

module Run_opts = struct
  type t = {
    fuel : int;
    collect_every_step : bool;
    measure : Space_model.t list;
    telemetry : Telemetry.t option;
    provenance : Census.t option;
  }

  let default =
    {
      fuel = 20_000_000;
      collect_every_step = false;
      measure = [ Space_model.Flat ];
      telemetry = None;
      provenance = None;
    }

  let make ?(fuel = default.fuel)
      ?(collect_every_step = default.collect_every_step)
      ?(measure = default.measure) ?telemetry ?provenance () =
    {
      fuel;
      collect_every_step;
      measure = Space_model.normalize measure;
      telemetry;
      provenance;
    }
end

let run_measured
    { Run_opts.fuel; collect_every_step; measure; telemetry; provenance }
    t expr =
  let measure_models = Space_model.normalize measure in
  let measure_linked = Space_model.mem Space_model.Linked measure_models in
  let measure_log = Space_model.mem Space_model.Log measure_models in
  (* The linked and log models are not tracked incrementally, so either
     one forces a collection before every observation. *)
  let measure_heavy = measure_linked || measure_log in
  Annot.record t.annot expr;
  restart_generators t;
  Buffer.clear t.ctx.output;
  (match provenance with
  | None ->
      t.prov <- None;
      t.track_sites <- false
  | Some c ->
      Census.set_annot c t.annot;
      t.prov <- Some c;
      t.track_sites <- true);
  (* The initial world is this run's old generation (see [Gc.collect]):
     [initial_store] below starts the run on the machine's store, and
     every collection of the run shares this world handle, and this
     history, so each re-traces only what changed since the last. *)
  let world = Gc.world t.genv in
  let history = Gc.history () in
  let gc_runs = ref 0 in
  let peak = ref 0 in
  let peak_linked = ref 0 in
  let peak_log = ref 0 in
  (* The step the machine is currently at, for the allocation hook
     and the collection events. *)
  let cur_step = ref 0 in
  let record_gc reason store reclaimed =
    if reclaimed > 0 then begin
      incr gc_runs;
      match telemetry with
      | Some tl ->
          Telemetry.record_gc tl ~step:!cur_step ~reason
            ~live:(Store.cardinal store) ~freed:reclaimed
      | None -> ()
    end
  in
  (* The garbage-free bit: true when a collection of the configuration
     at hand would free nothing. Every collection sets it, and a step
     keeps it only when [drops_nothing] proves the step left no garbage.
     Where the schedule calls for a collection on a garbage-free
     configuration, the peaks are recorded from that configuration
     unchanged — exactly what the collection would have left. Under
     [collect_every_step] every collection runs: that run is the
     reference the lazy schedule is tested against. *)
  let garbage_free = ref false in
  let collect_as reason config =
    let config, reclaimed = collect ~world ~history config in
    record_gc reason config.store reclaimed;
    garbage_free := true;
    config
  in
  let collect_unless_clean reason config =
    if !garbage_free then config else collect_as reason config
  in
  (* Peak updates that additionally stash the peak configuration for the
     census. Every call site is after a collection or on a garbage-free
     configuration, so a stashed store is fully reachable from the
     stashed roots — the retainer walk in [Census] relies on this. *)
  let note_flat config =
    let s = flat_space config in
    if s > !peak then begin
      peak := s;
      match provenance with
      | Some c ->
          Census.stash_flat c ~control:config.control ~env:config.env
            ~cont:config.cont ~store:config.store
      | None -> ()
    end
  in
  (* Both heavy models share one dedup walk per observation: the log
     charge is the linked unit count scaled by the pointer size, but the
     two peaks are tracked independently — the pointer size grows with
     the store, so the log peak can land on a different step. *)
  let note_heavy config =
    let u =
      Space.linked_config_space ~control:config.control ~env:config.env
        ~cont:config.cont ~store:config.store
    in
    if measure_linked && u > !peak_linked then begin
      peak_linked := u;
      match provenance with
      | Some c ->
          Census.stash_linked c ~control:config.control ~env:config.env
            ~cont:config.cont ~store:config.store
      | None -> ()
    end;
    if measure_log then begin
      let s = Space.pointer_bits config.store * u in
      if s > !peak_log then begin
        peak_log := s;
        match provenance with
        | Some c ->
            Census.stash_log c ~control:config.control ~env:config.env
              ~cont:config.cont ~store:config.store
        | None -> ()
      end
    end
  in
  let measure config =
    if measure_heavy then begin
      (* The linked and log models are not tracked incrementally, so
         every observation needs a garbage-free configuration: after a
         collection or on a garbage-free configuration. *)
      let config = collect_unless_clean Telemetry.Gc_linked config in
      note_flat config;
      note_heavy config;
      config
    end
    else begin
      (* Lazy schedule: collect only when the tracked figure would raise
         the peak, so garbage never counts toward it and the peak is the
         true sup. *)
      if flat_space config <= !peak then config
      else begin
        let config = collect_unless_clean Telemetry.Gc_peak config in
        note_flat config;
        config
      end
    end
  in
  let want_config =
    match telemetry with
    | Some tl -> Telemetry.wants_config tl
    | None -> false
  in
  (* Configuration descriptions should name provenance sites even when
     no census was requested: site threading is free bookkeeping. *)
  if want_config then t.track_sites <- true;
  let observe config steps =
    match telemetry with
    | None -> ()
    | Some tl ->
        Telemetry.record_step tl ~step:steps ~space:(flat_space config)
          ~cont_depth:(cont_depth config.cont)
          ~store_cells:(Store.cardinal config.store);
        if want_config then
          Telemetry.record_config tl ~step:steps
            (lazy (describe_config t.annot config))
  in
  let rec loop config steps =
    cur_step := steps;
    let config =
      if collect_every_step then collect_as Telemetry.Gc_forced config
      else config
    in
    let config = measure config in
    observe config steps;
    if steps >= fuel then
      let reason = Resilience.Out_of_fuel { limit = fuel } in
      (Aborted { reason; steps; peak_space = !peak }, steps)
    else
      (* The Algol return rule's check reads every retained cell, dead
         ones too, so on a configuration that may hold garbage it can
         fail where Definition 21's schedule, which collects before
         every step, would pop the frame: collect, and apply the rule
         again. *)
      match step t config with
      | Stuck_state _
        when (not !garbage_free)
             && match config.cont with Return_stack _ -> true | _ -> false ->
          let config = collect_as Telemetry.Gc_forced config in
          advance config (step t config) steps
      | next -> advance config next steps
  and advance config next steps =
    match next with
    | Next c ->
        garbage_free := !garbage_free && drops_nothing config c;
        loop c (steps + 1)
    | Final (v, store) ->
        (* The final configuration (v, sigma) is collected but never
           measured: it can set no peak. The configuration before it
           holds the same v and sigma plus an environment and the Halt
           word, and was measured exactly whenever it could raise a
           peak; this collection's roots are a subset of its roots, so
           the final figure is at least one word smaller under Flat and
           no larger under Linked and Log. The collection stays for the
           answer's store, and counts in [gc_runs]. *)
        let store, reclaimed =
          Gc.collect ~value:v ~env:Env.empty ~cont:Halt store
        in
        record_gc Telemetry.Gc_final store reclaimed;
        (Done { value = v; store; answer = Answer.to_string store v }, steps + 1)
    | Stuck_state m -> (Stuck m, steps)
  in
  let initial_store =
    let gstore = Store.start_run t.gstore in
    let store =
      match telemetry with
      | None -> gstore
      | Some tl ->
          Store.on_alloc gstore (fun _ v ->
              Telemetry.record_alloc tl ~step:!cur_step
                ~kind:(alloc_kind_of_value v)
                ~words:(1 + value_space v))
    in
    match provenance with
    | Some c -> Census.instrument c store
    | None -> store
  in
  let initial =
    { control = `Expr expr; env = t.genv; cont = Halt; store = initial_store }
  in
  let outcome, steps = loop initial 0 in
  (match telemetry with
  | Some tl ->
      Telemetry.note_steps tl steps;
      Telemetry.note_peak tl !peak;
      if measure_linked then Telemetry.note_linked tl !peak_linked;
      if measure_log then Telemetry.note_log tl !peak_log;
      (match outcome with
      | Stuck m -> Telemetry.record_stuck tl ~step:steps ~message:m
      | Done _ | Aborted _ -> ())
  | None -> ());
  {
    outcome;
    steps;
    peaks =
      List.filter_map
        (fun m ->
          match (m : Space_model.t) with
          | Space_model.Flat -> Some (m, !peak)
          | Space_model.Linked -> Some (m, !peak_linked)
          | Space_model.Log -> Some (m, !peak_log))
        measure_models;
    program_size = Ast.size expr;
    gc_runs = !gc_runs;
    output = Buffer.contents t.ctx.output;
  }

let exec ?(opts = Run_opts.default) t expr = run_measured opts t expr

let exec_program ?opts t ~program ~input =
  exec ?opts t (Ast.Call (program, [ input ]))

let exec_string ?opts t source = exec ?opts t (Expand.program_of_string source)
