module Env = Types.Env

(* One distinct base (physically) met by the walk, with the exact shadow
   counts that decide which of its bindings the configuration holds. *)
type base = {
  rep : Env.t;  (* an environment over this base *)
  mutable settled : bool;
      (* a counted environment over this base shadows none of its names,
         so every base binding counts and later environments over it
         need no counting *)
  mutable envs : int;  (* environments counted over this base *)
  shadows : (string, int) Hashtbl.t;
      (* base identifier -> how many of those environments shadow it *)
}

type acc = {
  names_at : (Types.loc, string list) Hashtbl.t;
      (* the global binding set: each (identifier, location) pair counts
         once per configuration; keyed by location, with the identifiers
         bound there *)
  mutable bindings : int;  (* the set's cardinal *)
  mutable bases : base list;
  mutable words : int; (* all non-binding space *)
}

let add_binding acc x l =
  match Hashtbl.find_opt acc.names_at l with
  | None ->
      Hashtbl.add acc.names_at l [ x ];
      acc.bindings <- acc.bindings + 1
  | Some xs when List.exists (String.equal x) xs -> ()
  | Some xs ->
      Hashtbl.replace acc.names_at l (x :: xs);
      acc.bindings <- acc.bindings + 1

let base_of acc env =
  match List.find_opt (fun b -> Env.base_eq b.rep env) acc.bases with
  | Some b -> b
  | None ->
      let b =
        { rep = env; settled = false; envs = 0; shadows = Hashtbl.create 8 }
      in
      acc.bases <- b :: acc.bases;
      b

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
            Hashtbl.replace b.shadows x
              (1 + Option.value (Hashtbl.find_opt b.shadows x) ~default:0)
          end)
        env;
      b.envs <- b.envs + 1;
      if not !shadows_any then b.settled <- true
    end
  end

(* A base binding (x, B(x)) is in the union of the environments' graphs
   when some environment over B leaves x unshadowed; when every one
   shadows it, it is in the set only if an overlay binds the same pair,
   which [add_binding] has already seen. *)
let add_bases acc =
  List.iter
    (fun b ->
      Env.iter_base
        (fun x l ->
          match Hashtbl.find_opt b.shadows x with
          | Some s when s >= b.envs -> ()
          | _ -> add_binding acc x l)
        b.rep)
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
  let acc =
    { names_at = Hashtbl.create 256; bindings = 0; bases = []; words = 0 }
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
