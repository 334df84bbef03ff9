module Env = Types.Env

(* Visitor-based tracing. Environments are traced as overlay-plus-base,
   with each distinct base (physically) traced once per collection: the
   machine's environments share at most two bases (the primitives and
   the whole global environment), so each global binding is traced once
   per collection instead of once per frame or closure. A shadowed base
   binding is still traced, which can pin a dead global cell — a few
   words of documented overcount, never affecting fresh locations; no
   prelude definition shadows a primitive, so the initial world has
   none.

   Old generation: the cells below the store's first run location are
   the world, built before the run, closed (while the write barrier is
   clear an old cell names only old locations) and, at the start of the
   run, all reachable from the world environment's base. A young-only
   collection notes old locations without entering them, does not enter
   the world base (it names only old cells; other bases may name young
   ones and are entered), and sweeps only the young cells. If the trace
   met the world base, every old cell is still live and no young cell is
   reachable only through one, so that is exactly what a full collection
   frees. Otherwise the same collection continues as a full one from the
   old locations it noted, and the world is marked lost: a base no root
   reaches stays unreachable for the rest of the run.

   Marks live in a byte table indexed by location: one table per
   domain, reused by every collection on it and grown on demand, so a
   mark allocates nothing and no collection sizes or clears a table for
   every location ever allocated. Only locations present in the store
   and at or above the sweep's first location are marked, and the sweep
   reads every such cell, so it zeroes each mark it reads; if tracing
   raises, the table is cleared before the exception escapes. One table
   per domain is sound because collections never nest: tracing calls
   nothing that collects. *)
let mark_table : Bytes.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref (Bytes.make 4096 '\000'))

let is_marked marks l = l < Bytes.length marks && Bytes.get marks l <> '\000'

type world = { genv : Env.t; mutable lost : bool }

(* An overlay could bind cells the base does not reach (a global added
   by [Machine.define_global] after the last rebase), so "met the base"
   would not mean "every old cell is live": such a world starts lost. *)
let world genv = { genv; lost = not (Env.overlay_is_empty genv) }

type tracer = {
  marks : Bytes.t ref;
  mutable bases : Env.t list;
  store : Store.t;
  mutable floor : Types.loc;
      (* the first young location; 0 in a full collection *)
  mutable world_base : Env.t option;
      (* the world environment, in a young-only collection *)
  mutable met : bool;  (* the trace has met the world base *)
  mutable noted : Types.loc list;
      (* old locations reached before the world base was met: where a
         collection that must go full continues from *)
}

let set_mark tr l =
  let marks = !(tr.marks) in
  let len = Bytes.length marks in
  let marks =
    if l < len then marks
    else begin
      let grown = Bytes.make (max (2 * len) (l + 1)) '\000' in
      Bytes.blit marks 0 grown 0 len;
      tr.marks := grown;
      grown
    end
  in
  Bytes.set marks l '\001'

let rec visit tr l =
  if l < tr.floor then (if not tr.met then tr.noted <- l :: tr.noted)
  else if not (is_marked !(tr.marks) l) then
    match Store.find_opt tr.store l with
    | None -> ()
    | Some v ->
        set_mark tr l;
        trace_value tr v

and trace_value tr (v : Types.value) =
  match v with
  | Bool _ | Int _ | Sym _ | Str _ | Char _ | Nil | Unspecified | Undefined
  | Primop _ ->
      ()
  | Pair (a, d) ->
      visit tr a;
      visit tr d
  | Vector locs -> Array.iter (visit tr) locs
  | Closure (tag, _, env) ->
      visit tr tag;
      trace_env tr env
  | Escape (tag, k) ->
      visit tr tag;
      trace_cont tr k

and trace_env tr env =
  Env.iter_overlay (fun _ l -> visit tr l) env;
  if Env.has_base env && not (List.exists (Env.base_eq env) tr.bases) then begin
    tr.bases <- env :: tr.bases;
    match tr.world_base with
    | Some w when Env.base_eq env w ->
        (* built before the run: it names only old cells *)
        tr.met <- true;
        tr.noted <- []
    | Some _ | None -> Env.iter_base (fun _ l -> visit tr l) env
  end

and trace_cont tr (k : Types.cont) =
  match k with
  | Halt -> ()
  | Select { env; next; _ } | Assign { env; next; _ } | Return { env; next; _ }
    ->
      trace_env tr env;
      trace_cont tr next
  | Push { evaluated; env; next; _ } ->
      trace_env tr env;
      List.iter (fun (_, v) -> trace_value tr v) evaluated;
      trace_cont tr next
  | Call { vals; next; _ } ->
      List.iter (trace_value tr) vals;
      trace_cont tr next
  | Return_stack { dels; env; next; _ } ->
      (* The deletion set counts as an occurrence (§8): stack-allocated
         locations live until their frame returns, even when garbage. *)
      List.iter (visit tr) dels;
      trace_env tr env;
      trace_cont tr next

let collect ?world ~control_locs ~env ~cont store =
  let marks = Domain.DLS.get mark_table in
  let first = Store.first_run_loc store in
  let world =
    match world with
    | Some w when (not w.lost) && first > 0 && not (Store.old_written store) ->
        Some w
    | Some _ | None -> None
  in
  let tr =
    {
      marks;
      bases = [];
      store;
      floor = (if Option.is_none world then 0 else first);
      world_base = Option.map (fun w -> w.genv) world;
      met = Option.is_none world;
      noted = [];
    }
  in
  (* The register environment first: it is where the world base is
     usually met, and old locations reached after that are not noted. *)
  let trace () =
    trace_env tr env;
    List.iter (visit tr) control_locs;
    trace_cont tr cont;
    match world with
    | Some w when not tr.met ->
        (* The world base is unreachable: continue as a full collection
           from the old locations the trace stopped at. *)
        w.lost <- true;
        tr.floor <- 0;
        tr.world_base <- None;
        List.iter (visit tr) tr.noted
    | Some _ | None -> ()
  in
  (match trace () with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Bytes.fill !marks 0 (Bytes.length !marks) '\000';
      Printexc.raise_with_backtrace e bt);
  let dead =
    Store.fold_from tr.floor
      (fun l _ dead ->
        if is_marked !marks l then begin
          Bytes.set !marks l '\000';
          dead
        end
        else l :: dead)
      store []
  in
  (Store.remove_all store dead, List.length dead)

(* One-level occurrence check for the I_stack return rule. Candidates
   are locations freshly allocated by a call, so they can never appear
   in a global base (built before the run), nor, while the write
   barrier is clear, in an old cell: only overlays and young cells are
   scanned. *)
let occurs_in_retained ~candidates ~control_locs ~env ~cont ~retained =
  let hit : (Types.loc, unit) Hashtbl.t = Hashtbl.create 8 in
  let check l = if Hashtbl.mem candidates l then Hashtbl.replace hit l () in
  let check_env env = Env.iter_overlay (fun _ l -> check l) env in
  let rec check_value (v : Types.value) =
    match v with
    | Bool _ | Int _ | Sym _ | Str _ | Char _ | Nil | Unspecified | Undefined
    | Primop _ ->
        ()
    | Pair (a, d) ->
        check a;
        check d
    | Vector locs -> Array.iter check locs
    | Closure (tag, _, env) ->
        check tag;
        check_env env
    | Escape (tag, k) ->
        check tag;
        check_cont k
  and check_cont (k : Types.cont) =
    match k with
    | Halt -> ()
    | Select { env; next; _ }
    | Assign { env; next; _ }
    | Return { env; next; _ } ->
        check_env env;
        check_cont next
    | Push { evaluated; env; next; _ } ->
        check_env env;
        List.iter (fun (_, v) -> check_value v) evaluated;
        check_cont next
    | Call { vals; next; _ } ->
        List.iter check_value vals;
        check_cont next
    | Return_stack { dels; env; next; _ } ->
        List.iter check dels;
        check_env env;
        check_cont next
  in
  List.iter check control_locs;
  check_env env;
  check_cont cont;
  let young =
    if Store.old_written retained then 0 else Store.first_run_loc retained
  in
  Store.fold_from young (fun _ v () -> check_value v) retained ();
  hit
