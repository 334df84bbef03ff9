module Ast = Tailspace_ast.Ast
module Bignum = Tailspace_bignum.Bignum
module Telemetry = Tailspace_telemetry.Telemetry
module Resilience = Tailspace_resilience.Resilience

(* ------------------------------------------------------------------ *)
(* Code                                                                *)

type instr =
  | IConst of Ast.const
  | ILocal of int * int
  | IGlobal of string
  | IClosure of template
  | ISel of code * code
  | ISelTail of code * code
  | IJoin
  | ISetLocal of int * int
  | ISetGlobal of string
  | IApply of int
  | ITailApply of int
  | IReturn

and code = instr list

and template = { nparams : int; variadic : bool; body : code }

(* ------------------------------------------------------------------ *)
(* Compiler: lexical addressing against a compile-time environment of
   name frames; anything unresolved is a global.                       *)

let compile ?(proper_tail_calls = true) expr =
  let index_of x names =
    let rec go i = function
      | [] -> None
      | n :: rest -> if String.equal n x then Some i else go (i + 1) rest
    in
    go 0 names
  in
  let resolve cenv x =
    let rec frames d = function
      | [] -> None
      | names :: rest -> (
          match index_of x names with
          | Some i -> Some (d, i)
          | None -> frames (d + 1) rest)
    in
    frames 0 cenv
  in
  let rec comp ~tail e cenv =
    match (e : Ast.expr) with
    | Ast.If (e0, e1, e2) ->
        if tail then
          comp ~tail:false e0 cenv
          @ [ ISelTail (comp ~tail:true e1 cenv, comp ~tail:true e2 cenv) ]
        else
          comp ~tail:false e0 cenv
          @ [
              ISel
                ( comp ~tail:false e1 cenv @ [ IJoin ],
                  comp ~tail:false e2 cenv @ [ IJoin ] );
            ]
    | Ast.Call (f, args) ->
        (* A tail call with [proper_tail_calls = false] compiles to the
           classic [IApply]; the callee's implicit return at end-of-code
           plays the [IReturn]. *)
        let apply =
          if tail && proper_tail_calls then ITailApply (List.length args)
          else IApply (List.length args)
        in
        comp ~tail:false f cenv
        @ List.concat_map (fun a -> comp ~tail:false a cenv) args
        @ [ apply ]
    | Ast.Quote _ | Ast.Var _ | Ast.Lambda _ | Ast.Set _ ->
        let base =
          match e with
          | Ast.Quote c -> [ IConst c ]
          | Ast.Var x -> (
              match resolve cenv x with
              | Some (d, i) -> [ ILocal (d, i) ]
              | None -> [ IGlobal x ])
          | Ast.Lambda l -> [ IClosure (template l cenv) ]
          | Ast.Set (x, e0) -> (
              comp ~tail:false e0 cenv
              @
              match resolve cenv x with
              | Some (d, i) -> [ ISetLocal (d, i) ]
              | None -> [ ISetGlobal x ])
          | Ast.If _ | Ast.Call _ -> assert false
        in
        if tail then base @ [ IReturn ] else base
  and template (l : Ast.lambda) cenv =
    let names =
      match l.rest with Some r -> l.params @ [ r ] | None -> l.params
    in
    {
      nparams = List.length l.params;
      variadic = Option.is_some l.rest;
      body = comp ~tail:true l.body (names :: cenv);
    }
  in
  comp ~tail:false expr []

(* ------------------------------------------------------------------ *)
(* Runtime values: OCaml-heap data, mutable in place — this engine is a
   realistic implementation, not a store semantics.                    *)

type value =
  | Int of Bignum.t
  | Bool of bool
  | Sym of string
  | Str of string
  | Char of char
  | Nil
  | Unspecified
  | Undefined
  | Pair of cell
  | Vector of vector
  | Closure of closure
  | Prim of string

(* Each mark field holds the epoch of the last live-space walk that
   counted the object (see [live_words]). *)
and cell = { mutable car : value; mutable cdr : value; mutable mark : int }
and vector = { items : value array; mutable vmark : int }
and closure = { template : template; env : env; mutable cmark : int }
and frame = { slots : value array; mutable fmark : int }
and env = frame list

exception Secd_error of string

let err fmt = Format.kasprintf (fun m -> raise (Secd_error m)) fmt

let value_of_const (c : Ast.const) =
  match c with
  | Ast.C_bool b -> Bool b
  | Ast.C_int z -> Int z
  | Ast.C_sym s -> Sym s
  | Ast.C_str s -> Str s
  | Ast.C_char c -> Char c
  | Ast.C_nil -> Nil
  | Ast.C_unspecified -> Unspecified
  | Ast.C_undefined -> Undefined

let vector items = Vector { items; vmark = 0 }

let rec list_of_values = function
  | [] -> Nil
  | v :: rest -> Pair { car = v; cdr = list_of_values rest; mark = 0 }

(* ------------------------------------------------------------------ *)
(* Primitives (the subset the corpus battery needs)                    *)

let eqv a b =
  match (a, b) with
  | Int x, Int y -> Bignum.equal x y
  | Bool x, Bool y -> x = y
  | Sym x, Sym y -> String.equal x y
  | Str x, Str y -> String.equal x y
  | Char x, Char y -> x = y
  | Nil, Nil | Unspecified, Unspecified | Undefined, Undefined -> true
  | Pair x, Pair y -> x == y
  | Vector x, Vector y -> x == y
  | Closure x, Closure y -> x == y
  | Prim x, Prim y -> String.equal x y
  | _, _ -> false

let want_int name = function Int z -> z | _ -> err "%s: expected number" name

let want_index name = function
  | Int z -> (
      match Bignum.to_int z with
      | Some n -> n
      | None -> err "%s: index too large" name)
  | _ -> err "%s: expected number" name

let want_pair name = function Pair c -> c | _ -> err "%s: expected pair" name

let chain name cmp args =
  let rec go = function
    | a :: (b :: _ as rest) ->
        cmp (want_int name a) (want_int name b) && go rest
    | _ -> true
  in
  if List.length args < 2 then err "%s: expected at least 2 arguments" name;
  Bool (go args)

let prim_apply name args =
  match (name, args) with
  | "+", args ->
      Int (List.fold_left (fun acc v -> Bignum.add acc (want_int "+" v)) Bignum.zero args)
  | "*", args ->
      Int (List.fold_left (fun acc v -> Bignum.mul acc (want_int "*" v)) Bignum.one args)
  | "-", [ a ] -> Int (Bignum.neg (want_int "-" a))
  | "-", a :: rest ->
      Int (List.fold_left (fun acc v -> Bignum.sub acc (want_int "-" v)) (want_int "-" a) rest)
  | "quotient", [ a; b ] -> Int (Bignum.quotient (want_int "quotient" a) (want_int "quotient" b))
  | "remainder", [ a; b ] -> Int (Bignum.remainder (want_int "remainder" a) (want_int "remainder" b))
  | "modulo", [ a; b ] -> Int (Bignum.modulo (want_int "modulo" a) (want_int "modulo" b))
  | "abs", [ a ] -> Int (Bignum.abs (want_int "abs" a))
  | "=", args -> chain "=" (fun a b -> Bignum.compare a b = 0) args
  | "<", args -> chain "<" (fun a b -> Bignum.compare a b < 0) args
  | ">", args -> chain ">" (fun a b -> Bignum.compare a b > 0) args
  | "<=", args -> chain "<=" (fun a b -> Bignum.compare a b <= 0) args
  | ">=", args -> chain ">=" (fun a b -> Bignum.compare a b >= 0) args
  | "zero?", [ a ] -> Bool (Bignum.is_zero (want_int "zero?" a))
  | "not", [ a ] -> Bool (a = Bool false)
  | "eq?", [ a; b ] | "eqv?", [ a; b ] -> Bool (eqv a b)
  | "pair?", [ a ] -> Bool (match a with Pair _ -> true | _ -> false)
  | "null?", [ a ] -> Bool (a = Nil)
  | "procedure?", [ a ] ->
      Bool (match a with Closure _ | Prim _ -> true | _ -> false)
  | "cons", [ a; d ] -> Pair { car = a; cdr = d; mark = 0 }
  | "car", [ p ] -> (want_pair "car" p).car
  | "cdr", [ p ] -> (want_pair "cdr" p).cdr
  | "set-car!", [ p; v ] ->
      (want_pair "set-car!" p).car <- v;
      Unspecified
  | "set-cdr!", [ p; v ] ->
      (want_pair "set-cdr!" p).cdr <- v;
      Unspecified
  | "list", args -> list_of_values args
  | "make-vector", [ n ] -> vector (Array.make (want_index "make-vector" n) Unspecified)
  | "make-vector", [ n; fill ] -> vector (Array.make (want_index "make-vector" n) fill)
  | "vector", args -> vector (Array.of_list args)
  | "vector-length", [ Vector { items = a; _ } ] -> Int (Bignum.of_int (Array.length a))
  | "vector-ref", [ Vector { items = a; _ }; i ] ->
      let i = want_index "vector-ref" i in
      if i < 0 || i >= Array.length a then err "vector-ref: out of range";
      a.(i)
  | "vector-set!", [ Vector { items = a; _ }; i; v ] ->
      let i = want_index "vector-set!" i in
      if i < 0 || i >= Array.length a then err "vector-set!: out of range";
      a.(i) <- v;
      Unspecified
  | "error", parts ->
      err "error: %s"
        (String.concat " "
           (List.map (function Str s -> s | Sym s -> s | _ -> "?") parts))
  | name, _ -> err "%s: unknown primitive or bad arguments" name

let prim_names =
  [
    "+"; "*"; "-"; "quotient"; "remainder"; "modulo"; "abs"; "="; "<"; ">";
    "<="; ">="; "zero?"; "not"; "eq?"; "eqv?"; "pair?"; "null?"; "procedure?";
    "cons"; "car"; "cdr"; "set-car!"; "set-cdr!"; "list"; "make-vector";
    "vector"; "vector-length"; "vector-ref"; "vector-set!"; "error";
  ]

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)

type dump_entry =
  | DFrame of value list * env * code
  | DJoin of code

type state = {
  mutable s : value list;
  mutable e : env;
  mutable c : code;
  mutable d : dump_entry list;
  globals : (string, value) Hashtbl.t;
  mutable epoch : int;  (** of the last [live_words] walk *)
}

(* ------------------------------------------------------------------ *)
(* Live-space measurement: physical-identity walk, shared structure
   counted once — actual memory, in the same word units as Figure 7.
   Each walk takes a fresh epoch of its own run's state and marks every
   object it counts with it; runs on other pool domains have states and
   objects of their own, so no mark is shared between them. Identity is
   the record's, not its array's: every empty frame or vector holds
   OCaml's one shared empty array, yet each is a word of its own.      *)

let live_words st =
  st.epoch <- st.epoch + 1;
  let epoch = st.epoch in
  let total = ref 0 in
  let add n = total := !total + n in
  let rec value v =
    match v with
    | Int z -> add (1 + Bignum.bit_length z)
    | Str s -> add (1 + String.length s)
    | Bool _ | Sym _ | Char _ | Nil | Unspecified | Undefined | Prim _ -> add 1
    | Pair cell ->
        if cell.mark <> epoch then begin
          cell.mark <- epoch;
          add 3;
          value cell.car;
          value cell.cdr
        end
    | Vector vec ->
        if vec.vmark <> epoch then begin
          vec.vmark <- epoch;
          array vec.items
        end
    | Closure clo ->
        if clo.cmark <> epoch then begin
          clo.cmark <- epoch;
          add 2 (* code pointer + environment pointer *);
          envir clo.env
        end
  and envir e =
    List.iter
      (fun frame ->
        if frame.fmark <> epoch then begin
          frame.fmark <- epoch;
          array frame.slots
        end)
      e
  and array items =
    add (1 + Array.length items);
    Array.iter value items
  in
  let dump_entry = function
    | DFrame (s, e, _) ->
        add 3;
        List.iter (fun v -> add 1; value v) s;
        envir e
    | DJoin _ -> add 1
  in
  List.iter (fun v -> add 1; value v) st.s;
  envir st.e;
  List.iter dump_entry st.d;
  Hashtbl.iter (fun _ v -> add 1; value v) st.globals;
  !total

(* ------------------------------------------------------------------ *)
(* Answers (rendered with the same conventions as Core.Answer)         *)

let render v =
  let buf = Buffer.create 32 in
  let fuel = ref 10_000 in
  let out s = if !fuel > 0 then (decr fuel; Buffer.add_string buf s) in
  let rec emit v =
    if !fuel > 0 then
      match v with
      | Bool true -> out "#t"
      | Bool false -> out "#f"
      | Int z -> out (Bignum.to_string z)
      | Sym s -> out s
      | Str s ->
          out (Format.asprintf "%a" Tailspace_sexp.Datum.pp (Tailspace_sexp.Datum.Str s))
      | Char c ->
          out (Format.asprintf "%a" Tailspace_sexp.Datum.pp (Tailspace_sexp.Datum.Char c))
      | Nil -> out "()"
      | Unspecified -> out "#!unspecified"
      | Undefined -> out "#!undefined"
      | Closure _ | Prim _ -> out "#<PROC>"
      | Vector { items = arr; _ } ->
          out "#(";
          Array.iteri
            (fun i x ->
              if i > 0 then out " ";
              emit x)
            arr;
          out ")"
      | Pair cell ->
          out "(";
          emit cell.car;
          tail cell.cdr;
          out ")"
  and tail = function
    | Nil -> ()
    | Pair cell ->
        out " ";
        emit cell.car;
        tail cell.cdr
    | v ->
        out " . ";
        emit v
  in
  emit v;
  if !fuel <= 0 then Buffer.add_string buf "...";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type outcome =
  | Done of string
  | Error of string
  | Aborted of Resilience.abort_reason

type result = { outcome : outcome; steps : int; peak_words : int }

let pop st = match st.s with v :: rest -> st.s <- rest; v | [] -> err "stack underflow"

let pop_n st n =
  let rec go n acc = if n = 0 then acc else go (n - 1) (pop st :: acc) in
  go n []

let frame_lookup st depth slot =
  match List.nth_opt st.e depth with
  | Some { slots; _ } when slot < Array.length slots -> slots.(slot)
  | _ -> err "bad lexical address %d/%d" depth slot

let do_return st result =
  match st.d with
  | DFrame (s0, e0, c0) :: rest ->
      st.s <- result :: s0;
      st.e <- e0;
      st.c <- c0;
      st.d <- rest;
      None
  | DJoin _ :: _ -> err "return through a join point (compiler bug)"
  | [] -> Some result

let enter_closure st clo args ~push_frame =
  let t = clo.template in
  let n = List.length args in
  let ok = if t.variadic then n >= t.nparams else n = t.nparams in
  if not ok then
    err "arity: procedure expects %s%d arguments, got %d"
      (if t.variadic then "at least " else "")
      t.nparams n;
  let size = t.nparams + if t.variadic then 1 else 0 in
  let slots = Array.make size Undefined in
  let rec fill i = function
    | args when i = t.nparams ->
        if t.variadic then slots.(i) <- list_of_values args
        else assert (args = [])
    | arg :: rest ->
        slots.(i) <- arg;
        fill (i + 1) rest
    | [] -> assert false
  in
  if size > 0 then fill 0 args;
  if push_frame then st.d <- DFrame (st.s, st.e, st.c) :: st.d;
  st.s <- [];
  st.e <- { slots; fmark = 0 } :: clo.env;
  st.c <- t.body

(* returns Some answer when the program halts *)
let exec_instr st instr =
  match instr with
  | IConst c ->
      st.s <- value_of_const c :: st.s;
      None
  | ILocal (d, i) -> (
      match frame_lookup st d i with
      | Undefined -> err "letrec variable used before initialization"
      | v ->
          st.s <- v :: st.s;
          None)
  | IGlobal x -> (
      match Hashtbl.find_opt st.globals x with
      | Some v ->
          st.s <- v :: st.s;
          None
      | None -> err "unbound global: %s" x)
  | IClosure t ->
      st.s <- Closure { template = t; env = st.e; cmark = 0 } :: st.s;
      None
  | ISel (c1, c2) ->
      let v = pop st in
      st.d <- DJoin st.c :: st.d;
      st.c <- (if v = Bool false then c2 else c1);
      None
  | ISelTail (c1, c2) ->
      let v = pop st in
      st.c <- (if v = Bool false then c2 else c1);
      None
  | IJoin -> (
      match st.d with
      | DJoin c0 :: rest ->
          st.c <- c0;
          st.d <- rest;
          None
      | _ -> err "join without a join point (compiler bug)")
  | ISetLocal (d, i) -> (
      let v = pop st in
      match List.nth_opt st.e d with
      | Some { slots; _ } when i < Array.length slots ->
          slots.(i) <- v;
          st.s <- Unspecified :: st.s;
          None
      | _ -> err "bad lexical address %d/%d" d i)
  | ISetGlobal x ->
      let v = pop st in
      if not (Hashtbl.mem st.globals x) then err "set!: unbound global %s" x;
      Hashtbl.replace st.globals x v;
      st.s <- Unspecified :: st.s;
      None
  | IApply n | ITailApply n -> (
      let tail = match instr with ITailApply _ -> true | _ -> false in
      let args = pop_n st n in
      let f = pop st in
      match f with
      | Closure clo ->
          enter_closure st clo args ~push_frame:(not tail);
          None
      | Prim name ->
          let result = prim_apply name args in
          if tail then do_return st result
          else begin
            st.s <- result :: st.s;
            None
          end
      | v -> err "attempt to call a non-procedure (%s)" (render v))
  | IReturn -> do_return st (pop st)

let run ?(fuel = 20_000_000) ?(proper_tail_calls = true) ?telemetry expr =
  let code = compile ~proper_tail_calls expr in
  let globals = Hashtbl.create 64 in
  List.iter (fun name -> Hashtbl.replace globals name (Prim name)) prim_names;
  let st = { s = []; e = []; c = code; d = []; globals; epoch = 0 } in
  let peak = ref 0 in
  let steps = ref 0 in
  let measure () =
    let words = live_words st in
    peak := Stdlib.max !peak words;
    match telemetry with
    | Some tl ->
        (* the dump plays the continuation's role; there is no store, so
           the store-cells channel is unused *)
        Telemetry.record_step tl ~step:!steps ~space:words
          ~cont_depth:(List.length st.d) ~store_cells:0
    | None -> ()
  in
  let finish outcome =
    (match telemetry with
    | Some tl ->
        Telemetry.note_steps tl !steps;
        Telemetry.note_peak tl !peak;
        (match outcome with
        | Error m -> Telemetry.record_stuck tl ~step:!steps ~message:m
        | Done _ | Aborted _ -> ())
    | None -> ());
    { outcome; steps = !steps; peak_words = !peak }
  in
  let rec loop () =
    measure ();
    if !steps >= fuel then
      finish (Aborted (Resilience.Out_of_fuel { limit = fuel }))
    else
      match st.c with
      | [] -> (
          (* implicit return at the end of a code sequence *)
          match do_return st (pop st) with
          | Some answer -> finish (Done (render answer))
          | None ->
              incr steps;
              loop ())
      | instr :: rest -> (
          st.c <- rest;
          incr steps;
          match exec_instr st instr with
          | Some answer -> finish (Done (render answer))
          | None -> loop ())
  in
  try loop () with Secd_error m -> finish (Error m)

let run_program ?fuel ?proper_tail_calls ?telemetry ~program ~input () =
  run ?fuel ?proper_tail_calls ?telemetry (Ast.Call (program, [ input ]))
