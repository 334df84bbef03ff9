module Ast = Tailspace_ast.Ast
module Annot = Tailspace_analysis.Annot
module P = Tailspace_provenance.Provenance
module Env = Types.Env

(* The census builder: the run-time half of the provenance layer. A
   [Census.t] rides along one measured run of [Machine.exec]. It is fed
   from two hooks:

   - a store location observer tagging every allocation with the
     current (site, phase);
   - a stash at every strict peak increase, keeping the exact peak
     configuration. Every peak update in the measured loop happens
     right after a collection, so a stashed store holds only reachable
     cells and the retainer walk below covers all of them.

   The exact censuses are then derived lazily from the stashes: the
   flat decomposition telescopes the Figure 7 sum (store cells by
   allocation site, continuation frames by pushing site, the register
   environment, the control value, Halt), and the linked decomposition
   mirrors the Figure 8 walk in [Space] with attribution. Both sum to
   their telemetry peaks exactly, by construction. *)

type control = [ `Expr of Ast.expr | `Value of Types.value ]

type stash =
  | Nothing
  | At_config of {
      control : control;
      env : Env.t;
      cont : Types.cont;
      store : Store.t;
    }

type t = {
  mutable annot : Annot.t option;
  site_of_loc : (Types.loc, int * P.phase) Hashtbl.t;
      (* locations are never reused (monotone allocator), so this map
         only grows; entries for dead locations are kept because the
         peak stashes may still name them *)
  mutable current_site : int;
  mutable phase_hint : P.phase option;
  mutable flat_stash : stash;
  mutable linked_stash : stash;
  mutable log_stash : stash;
}

let create () =
  {
    annot = None;
    site_of_loc = Hashtbl.create 1024;
    current_site = -1;
    phase_hint = None;
    flat_stash = Nothing;
    linked_stash = Nothing;
    log_stash = Nothing;
  }

let set_annot t a = t.annot <- Some a

let set_alloc_site t ~site ~phase =
  t.current_site <- site;
  t.phase_hint <- phase

let phase_of_value : Types.value -> P.phase = function
  | Pair _ -> P.P_pair
  | Vector _ -> P.P_vector
  | Closure _ -> P.P_closure
  | Escape _ -> P.P_escape
  | Str _ -> P.P_string
  | Int _ -> P.P_bignum
  | Bool _ | Sym _ | Char _ | Nil | Unspecified | Undefined | Primop _ ->
      P.P_atom

let bump tbl key dw =
  Hashtbl.replace tbl key
    ((match Hashtbl.find_opt tbl key with Some w -> w | None -> 0) + dw)

let on_alloc t l v =
  let phase =
    match t.phase_hint with Some p -> p | None -> phase_of_value v
  in
  Hashtbl.replace t.site_of_loc l (t.current_site, phase)

let instrument t store = Store.add_loc_observer store (on_alloc t)

let key_of_loc t l =
  match Hashtbl.find_opt t.site_of_loc l with
  | Some key -> key
  | None -> (-1, P.P_globals)

let stash_flat t ~control ~env ~cont ~store =
  t.flat_stash <- At_config { control; env; cont; store }

let stash_linked t ~control ~env ~cont ~store =
  t.linked_stash <- At_config { control; env; cont; store }

let stash_log t ~control ~env ~cont ~store =
  t.log_stash <- At_config { control; env; cont; store }

(* ------------------------------------------------------------------ *)
(* Census assembly                                                     *)

let env_key = (-1, P.P_register_env)
let control_key = (-1, P.P_control)
let halt_key = (-1, P.P_halt)

let truncate_span s =
  if String.length s > 48 then String.sub s 0 45 ^ "..." else s

let labels_for t keys =
  match t.annot with
  | None -> []
  | Some a ->
      let seen = Hashtbl.create 32 in
      List.filter_map
        (fun (site, _) ->
          if site < 0 || Hashtbl.mem seen site then None
          else begin
            Hashtbl.add seen site ();
            match Annot.site_expr a site with
            | Some e -> Some (site, truncate_span (Ast.to_string e))
            | None -> None
          end)
        keys

type acc = {
  words : (int * P.phase, int) Hashtbl.t;
  cells : (int * P.phase, int) Hashtbl.t;
  retain : (int * P.phase, (int * P.phase, unit) Hashtbl.t) Hashtbl.t;
  stacks : ((int * P.phase) list, int) Hashtbl.t;
}

let make_acc () =
  {
    words = Hashtbl.create 64;
    cells = Hashtbl.create 64;
    retain = Hashtbl.create 64;
    stacks = Hashtbl.create 64;
  }

let note_retainer acc ~of_:key ~root =
  let set =
    match Hashtbl.find_opt acc.retain key with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.add acc.retain key s;
        s
  in
  Hashtbl.replace set root ()

let finish t acc ~measure ~peak =
  let keys =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ ks -> k :: ks) acc.words []
      @ Hashtbl.fold (fun path _ ks -> path @ ks) acc.stacks [])
  in
  let rows =
    Hashtbl.fold
      (fun (site, phase) words rows ->
        {
          P.site;
          phase;
          words;
          cells =
            (match Hashtbl.find_opt acc.cells (site, phase) with
            | Some c -> c
            | None -> 0);
          retained_by =
            (match Hashtbl.find_opt acc.retain (site, phase) with
            | Some set ->
                List.sort compare (Hashtbl.fold (fun k () l -> k :: l) set [])
            | None -> []);
        }
        :: rows)
      acc.words []
  in
  let rows =
    (* biggest consumer first; deterministic tie-break on the key *)
    List.sort
      (fun (a : P.row) (b : P.row) ->
        match compare b.P.words a.P.words with
        | 0 -> compare (a.P.site, a.P.phase) (b.P.site, b.P.phase)
        | c -> c)
      rows
  in
  let stacks =
    List.sort
      (fun (a : P.stack) b ->
        match compare b.P.swords a.P.swords with
        | 0 -> compare a.P.path b.P.path
        | c -> c)
      (Hashtbl.fold
         (fun path swords l -> { P.path; swords } :: l)
         acc.stacks [])
  in
  { P.measure; peak; rows; stacks; labels = labels_for t keys }

(* ------------------------------------------------------------------ *)
(* Flat census: the Figure 7 sum, componentwise.                       *)

(* Per-frame flat words: the cached size minus the tail's — telescopes
   exactly to [cont_space cont]. *)
let flat_frames acc cont =
  let rec go (k : Types.cont) =
    match k with
    | Types.Halt ->
        bump acc.words halt_key 1;
        bump acc.stacks [ halt_key ] 1
    | Types.Select { next; size; site; _ }
    | Types.Assign { next; size; site; _ }
    | Types.Push { next; size; site; _ }
    | Types.Call { next; size; site; _ }
    | Types.Return { next; size; site; _ }
    | Types.Return_stack { next; size; site; _ } ->
        let self = size - Types.cont_space next in
        bump acc.words (site, P.P_frame) self;
        bump acc.stacks [ (site, P.P_frame) ] self;
        go next
  in
  go cont

(* The retainer walk breaks ties between equally deep retainers by the
   order it meets locations in, so it lists an environment's locations
   in one fixed order: the unshadowed base bindings, then the overlay's,
   each by decreasing identifier in [String] order. The stacks then do
   not depend on the order [Env] keeps its identifiers in. *)
let env_locations env =
  let over = ref [] and shadowed = ref Ast.Iset.empty and base = ref [] in
  Env.iter_overlay
    (fun x l ->
      over := (x, l) :: !over;
      shadowed := Ast.Iset.add x !shadowed)
    env;
  Env.iter_base
    (fun x l -> if not (Ast.Iset.mem x !shadowed) then base := (x, l) :: !base)
    env;
  let by_name = List.sort (fun (x, _) (y, _) -> String.compare y x) in
  List.map snd (by_name !base @ by_name !over)

let value_locs = Types.value_locs_by ~env_locs:env_locations

(* The retainer walk: a first-retainer-wins BFS from the categorized
   roots over the store graph. Each reachable cell's words land on one
   collapsed stack (root first, consecutive duplicate sites merged,
   depth-capped), so the stack lines partition the store space. *)
let max_stack_depth = 12

let extend_chain chain key =
  match chain with
  | top :: _ when top = key -> chain
  | _ when List.length chain >= max_stack_depth -> chain
  | _ -> key :: chain

let walk_store t acc ~roots store =
  let visited : (Types.loc, unit) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun (root, locs) ->
      List.iter (fun l -> Queue.add (l, root, [ root ]) queue) locs)
    roots;
  while not (Queue.is_empty queue) do
    let l, root, chain = Queue.pop queue in
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      match Store.find_opt store l with
      | None -> ()
      | Some v ->
          let key = key_of_loc t l in
          let w = 1 + Types.value_space v in
          bump acc.words key w;
          bump acc.cells key 1;
          note_retainer acc ~of_:key ~root;
          let chain = extend_chain chain key in
          bump acc.stacks (List.rev chain) w;
          List.iter
            (fun l' -> Queue.add (l', root, chain) queue)
            (value_locs v)
    end
  done;
  (* Post-collection stashes have no unreachable cells; anything left
     is surfaced rather than silently dropped so the census still sums
     to the peak. *)
  Store.iter
    (fun l v ->
      if not (Hashtbl.mem visited l) then begin
        let key = key_of_loc t l in
        let w = 1 + Types.value_space v in
        bump acc.words key w;
        bump acc.cells key 1;
        note_retainer acc ~of_:key ~root:(-1, P.P_unreachable);
        bump acc.stacks [ (-1, P.P_unreachable); key ] w
      end)
    store

(* The roots of a configuration, each labeled with the row that holds
   the pointer: the register environment, the control value, and every
   continuation frame (its saved environment, held values, and any
   I_stack deletion set). *)
let config_roots ~control ~env ~cont =
  let frame_roots =
    let rec go acc (k : Types.cont) =
      match k with
      | Types.Halt -> acc
      | Types.Select { env; next; site; _ }
      | Types.Assign { env; next; site; _ }
      | Types.Return { env; next; site; _ } ->
          go (((site, P.P_frame), env_locations env) :: acc) next
      | Types.Push { evaluated; env; next; site; _ } ->
          let locs =
            env_locations env
            @ List.concat_map (fun (_, v) -> value_locs v) evaluated
          in
          go (((site, P.P_frame), locs) :: acc) next
      | Types.Call { vals; next; site; _ } ->
          go (((site, P.P_frame), List.concat_map value_locs vals) :: acc)
            next
      | Types.Return_stack { dels; env; next; site; _ } ->
          go (((site, P.P_frame), dels @ env_locations env) :: acc) next
    in
    List.rev (go [] cont)
  in
  let control_root =
    match control with
    | `Expr _ -> []
    | `Value v -> [ (control_key, value_locs v) ]
  in
  ((env_key, env_locations env) :: control_root) @ frame_roots

let flat_census t ~peak =
  match t.flat_stash with
  | Nothing -> None
  | At_config { control; env; cont; store } ->
      let acc = make_acc () in
      let rho = Env.cardinal env in
      if rho > 0 then begin
        bump acc.words env_key rho;
        bump acc.stacks [ env_key ] rho
      end;
      (match control with
      | `Expr _ -> ()
      | `Value v ->
          bump acc.words control_key (Types.value_space v);
          bump acc.stacks [ control_key ] (Types.value_space v));
      flat_frames acc cont;
      walk_store t acc ~roots:(config_roots ~control ~env ~cont) store;
      Some (finish t acc ~measure:P.Flat ~peak)

(* ------------------------------------------------------------------ *)
(* Linked census: the Figure 8 walk of [Space], with attribution. The
   global binding set is deduplicated exactly as there; each distinct
   (identifier, location) binding charges its one word to the site of
   the cell it names, which is traversal-order independent.

   The log census is the same decomposition with every charge scaled by
   the stashed store's pointer size — an integer factor, so the rows
   still sum exactly to [scale * linked units], which is precisely the
   log peak at the stashed configuration.                              *)

let linked_like_census t stash ~measure ~scale_of_store ~peak =
  match (stash : stash) with
  | Nothing -> None
  | At_config { control; env; cont; store } ->
      let b = scale_of_store store in
      let acc = make_acc () in
      (* cell counts are populations, not charges: never scaled *)
      let cell_bump key = bump acc.cells key 1 in
      let bump tbl key dw = bump tbl key (b * dw) in
      let bindings : (string * Types.loc, unit) Hashtbl.t =
        Hashtbl.create 64
      in
      let add_env env =
        Env.iter (fun x l -> Hashtbl.replace bindings (x, l) ()) env
      in
      (* A frame costs its non-environment words; its environment's
         bindings join the shared set. Shared by the configuration's
         continuation and every escape's. *)
      let rec frames (k : Types.cont) =
        match k with
        | Types.Halt -> bump acc.words halt_key 1
        | Types.Select { env; next; site; _ }
        | Types.Assign { env; next; site; _ }
        | Types.Return { env; next; site; _ }
        | Types.Return_stack { env; next; site; _ } ->
            add_env env;
            bump acc.words (site, P.P_frame) 1;
            frames next
        | Types.Push { remaining; evaluated; env; next; site; _ } ->
            add_env env;
            bump acc.words (site, P.P_frame)
              (1 + List.length remaining + List.length evaluated);
            frames next
        | Types.Call { vals; next; site; _ } ->
            bump acc.words (site, P.P_frame) (1 + List.length vals);
            frames next
      in
      let add_value key (v : Types.value) =
        match v with
        | Types.Closure (_, _, cenv) ->
            add_env cenv;
            bump acc.words key 1
        | Types.Escape (_, k) ->
            bump acc.words key 1;
            frames k
        | v -> bump acc.words key (Types.value_space v)
      in
      add_env env;
      (match control with
      | `Expr _ -> ()
      | `Value v -> add_value control_key v);
      frames cont;
      Store.iter
        (fun l v ->
          let key = key_of_loc t l in
          bump acc.words key 1;
          cell_bump key;
          add_value key v)
        store;
      Hashtbl.iter
        (fun (_, l) () -> bump acc.words (key_of_loc t l) 1)
        bindings;
      Some (finish t acc ~measure ~peak)

let linked_census t ~peak =
  linked_like_census t t.linked_stash ~measure:P.Linked
    ~scale_of_store:(fun _ -> 1)
    ~peak

let log_census t ~peak =
  linked_like_census t t.log_stash ~measure:P.Log
    ~scale_of_store:Space.pointer_bits ~peak
