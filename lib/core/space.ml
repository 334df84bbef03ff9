module Env = Types.Env

(* The binding set of a walk: each (identifier, location) pair counts
   once per configuration. It lives in a table indexed by location, one
   per domain, reused by every walk on it and grown on demand to the
   largest location met, so adding a pair hashes nothing and allocates
   only for a second name at one location, and no walk sizes a table
   for every location ever allocated. Entry l holds the identifiers
   bound at l, and counts only if its stamp is the epoch of the walk at
   hand: each walk takes a fresh epoch, so the entries of an earlier
   walk, one that raised included, read as empty. One table per domain
   is sound because walks never nest. It is not [Gc]'s mark table,
   whose marks outlive a collection. *)
type table = {
  mutable stamps : int array;  (* the epoch of the walk that wrote entry l *)
  mutable names : string array;  (* the first identifier bound at l *)
  mutable more : string list array;  (* any other identifiers bound at l *)
  mutable epoch : int;  (* the last walk's *)
}

let initial_size = 1024

let tables : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        stamps = Array.make initial_size 0;
        names = Array.make initial_size "";
        more = Array.make initial_size [];
        epoch = 0;
      })

let grow t l =
  let n = max (l + 1) (2 * Array.length t.stamps) in
  let grown a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.stamps <- grown t.stamps 0;
  t.names <- grown t.names "";
  t.more <- grown t.more []

(* One distinct base (physically) met by the walk, with the exact shadow
   counts that decide which of its bindings the configuration holds. *)
type base = {
  rep : Env.t;  (* an environment over this base *)
  mutable settled : bool;
      (* a counted environment over this base shadows none of its names,
         so every base binding counts and later environments over it
         need no counting *)
  mutable envs : int;  (* environments counted over this base *)
  mutable shadows : (string, int) Hashtbl.t option;
      (* base identifier -> how many of those environments shadow it;
         made at the first shadow, so a base no overlay shadows has none *)
}

type acc = {
  table : table;
  epoch : int;  (* this walk's *)
  mutable bindings : int;  (* the binding set's cardinal *)
  mutable bases : base list;
  mutable words : int; (* all non-binding space *)
}

let add_binding acc x l =
  let t = acc.table in
  if l >= Array.length t.stamps then grow t l;
  if t.stamps.(l) <> acc.epoch then begin
    t.stamps.(l) <- acc.epoch;
    t.names.(l) <- x;
    if t.more.(l) != [] then t.more.(l) <- [];
    acc.bindings <- acc.bindings + 1
  end
  else if
    (* Overlay and base keys are mostly the very strings the expander
       made, so a physical test settles most repeats without a call. *)
    let y = t.names.(l) in
    not (y == x || String.equal y x || List.exists (String.equal x) t.more.(l))
  then begin
    t.more.(l) <- x :: t.more.(l);
    acc.bindings <- acc.bindings + 1
  end

let base_of acc env =
  match List.find_opt (fun b -> Env.base_eq b.rep env) acc.bases with
  | Some b -> b
  | None ->
      let b = { rep = env; settled = false; envs = 0; shadows = None } in
      acc.bases <- b :: acc.bases;
      b

let shadow b x =
  let h =
    match b.shadows with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 8 in
        b.shadows <- Some h;
        h
  in
  Hashtbl.replace h x (1 + Option.value (Hashtbl.find_opt h x) ~default:0)

(* The overlay's pairs join the set now; the base's wait for [add_bases],
   which adds each distinct base once. *)
let add_env acc env =
  Env.iter_overlay (fun x l -> add_binding acc x l) env;
  if Env.has_base env then begin
    let b = base_of acc env in
    if not b.settled then begin
      let shadows_any = ref false in
      Env.iter_overlay
        (fun x _ ->
          if Env.mem_base x env then begin
            shadows_any := true;
            shadow b x
          end)
        env;
      b.envs <- b.envs + 1;
      if not !shadows_any then b.settled <- true
    end
  end

(* A base binding (x, B(x)) is in the union of the environments' graphs
   when some environment over B leaves x unshadowed; when every one
   shadows it, it is in the set only if an overlay binds the same pair,
   which [add_binding] has already seen. A settled base leaves every
   name unshadowed by one environment, so all its pairs count. *)
let add_bases acc =
  List.iter
    (fun b ->
      match b.shadows with
      | Some h when not b.settled ->
          Env.iter_base
            (fun x l ->
              match Hashtbl.find_opt h x with
              | Some s when s >= b.envs -> ()
              | _ -> add_binding acc x l)
            b.rep
      | _ -> Env.iter_base (add_binding acc) b.rep)
    acc.bases

(* A value in the accumulator or in a store cell. Closures cost one word
   plus shared bindings; escapes cost one word plus their continuation
   (walked with per-frame overheads and shared bindings). Values held in
   push/call frames are *not* passed here: Figures 7 and 8 charge them
   exactly one word via the frame's [n] term, and counting more would
   break the pointwise bound U_X <= S_X of §13. *)
let rec add_value acc (v : Types.value) =
  match v with
  | Closure (_, _, env) ->
      add_env acc env;
      acc.words <- acc.words + 1
  | Escape (_, k) ->
      acc.words <- acc.words + 1;
      add_cont acc k
  | v -> acc.words <- acc.words + Types.value_space v

(* Frame overheads per Figure 8: each frame costs one word plus, for push
   and call frames, one word per held expression or value; saved
   environments contribute bindings only. *)
and add_cont acc (k : Types.cont) =
  match k with
  | Halt -> acc.words <- acc.words + 1
  | Select { env; next; _ } | Assign { env; next; _ } ->
      add_env acc env;
      acc.words <- acc.words + 1;
      add_cont acc next
  | Push { remaining; evaluated; env; next; _ } ->
      add_env acc env;
      acc.words <-
        acc.words + 1 + List.length remaining + List.length evaluated;
      add_cont acc next
  | Call { vals; next; _ } ->
      acc.words <- acc.words + 1 + List.length vals;
      add_cont acc next
  | Return { env; next; _ } | Return_stack { env; next; _ } ->
      add_env acc env;
      acc.words <- acc.words + 1;
      add_cont acc next

let linked_config_space ~control ~env ~cont ~store =
  let table = Domain.DLS.get tables in
  table.epoch <- table.epoch + 1;
  let acc =
    { table; epoch = table.epoch; bindings = 0; bases = []; words = 0 }
  in
  add_env acc env;
  (match control with `Expr _ -> () | `Value v -> add_value acc v);
  add_cont acc cont;
  Store.iter
    (fun _ v ->
      acc.words <- acc.words + 1;
      add_value acc v)
    store;
  add_bases acc;
  acc.words + acc.bindings

(* ceil(log2 n) for n >= 1; 0 for n <= 1. *)
let ceil_log2 n =
  let rec go b p = if p >= n then b else go (b + 1) (p * 2) in
  if n <= 1 then 0 else go 0 1

let pointer_bits store = max 1 (ceil_log2 (Store.cardinal store))
