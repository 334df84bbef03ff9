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
   collection does not enter old locations or the world base (it names
   only old cells; other bases may name young ones and are entered), and
   sweeps only the young cells. If the trace met the world base, every
   old cell is still live and no young cell is reachable only through
   one, so that is exactly what a full collection frees. Otherwise the
   world is marked lost (a base no root reaches stays unreachable for
   the rest of the run) and the collection starts again as a full one.

   The record: a collection traces the continuation bottom-up, then the
   registers, and keeps the continuation and, per frame depth d, the
   cells first reached through that frame (the register-only cells
   last), with each cell's depth as its mark. Frames are immutable and
   a cell changes only when written or removed, so at the next
   collection the cells reachable from the frames at depths <= w are
   exactly the ones recorded there, where the watermark w is the
   deepest depth whose frame is physically the recorded one and below
   every depth a write or removal since has touched (the store's change
   log). Those cells count as live without being visited; the frames
   above w and the registers are traced, reaching the recorded cells
   only as marks. The only cells that can then be dead are the ones
   allocated since, the ones recorded above w (demoted) and last time's
   register-only ones, so only they are swept, and not even they when
   every young cell is marked. A fresh history, a store from another
   epoch (not the last result, so the log does not cover it), a change
   between young-only and full, or an overflowed change log give w = 0
   and a sweep from the first traced location: a collection of the
   whole continuation.

   Marks live in a table of 16-bit entries indexed by location, one per
   domain, reused by every collection on it and grown on demand, so a
   mark allocates nothing and no collection sizes or clears a table for
   every location ever allocated. An entry is 0, a recorded depth
   (depths past [deep] share it, which only lowers w further than
   needed), or [reg]. The table holds exactly the marks of its owner's
   record: a collection through another history (every machine's young
   locations start at the same number) first zeroes them, and a raising
   trace zeroes its own before the exception escapes. One table per
   domain is sound because collections never nest: tracing calls
   nothing that collects. *)

let reg = 0xFFFF
let deep = 0xFFFE

type record = {
  mutable marks : Bytes.t;
  mutable owner : int;  (* the history the record belongs to; -1 none *)
  mutable epoch : int;  (* the store epoch the last sweep started *)
  mutable floor : Types.loc;
      (* the first location traced and swept: the run's first location
         in a young-only collection, 0 in a full one *)
  mutable swept_to : Types.loc;
      (* cells at or above it are younger than the last collection *)
  mutable top : Types.cont;  (* the continuation recorded *)
  mutable ends : int array;
      (* [ends.(d)]: how many cells were recorded at depths <= d *)
  mutable cells : Types.loc array;  (* recorded cells, bottom depth first *)
  mutable ncells : int;
  mutable bases : (int * Env.t) list;
      (* bases traced, or the world base met, with the depth they were
         first reached at; [max_int] for the registers *)
  mutable demoted : Types.loc array;
  mutable ndemoted : int;
}

let records : record Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        marks = Bytes.make 8192 '\000';
        owner = -1;
        epoch = -1;
        floor = 0;
        swept_to = 0;
        top = Types.Halt;
        ends = Array.make 65 0;
        cells = Array.make 256 0;
        ncells = 0;
        bases = [];
        demoted = Array.make 64 0;
        ndemoted = 0;
      })

type history = int

let histories = Atomic.make 0
let history () = Atomic.fetch_and_add histories 1

let mark r l =
  let i = 2 * l in
  if i < Bytes.length r.marks then Bytes.get_uint16_ne r.marks i else 0

let unmark r l = Bytes.set_uint16_ne r.marks (2 * l) 0

let grown a n =
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Forget every recorded cell: zero its mark. The next sweep starts
   from [floor]. *)
let forget r ~floor =
  for i = 0 to r.ncells - 1 do
    unmark r r.cells.(i)
  done;
  r.ncells <- 0;
  r.ndemoted <- 0;
  r.bases <- [];
  r.floor <- floor;
  r.swept_to <- floor

(* ... and the recorded continuation too. *)
let reset r ~floor =
  forget r ~floor;
  r.top <- Types.Halt

type world = { genv : Env.t; mutable lost : bool }

(* An overlay could bind cells the base does not reach (a global added
   by [Machine.define_global] after the last rebase), so "met the base"
   would not mean "every old cell is live": such a world starts lost. *)
let world genv = { genv; lost = not (Env.overlay_is_empty genv) }

type tracer = {
  r : record;
  store : Store.t;
  floor : Types.loc;
  world_base : Env.t option;
      (* the world environment, in a young-only collection *)
  mutable met : bool;  (* the trace has met the world base *)
  mutable code : int;  (* the mark of a cell first reached now *)
  mutable at : int;  (* the depth being traced *)
}

let record tr l =
  let r = tr.r in
  if 2 * l + 1 >= Bytes.length r.marks then begin
    let len = Bytes.length r.marks in
    let b = Bytes.make (max (2 * len) (2 * l + 2)) '\000' in
    Bytes.blit r.marks 0 b 0 len;
    r.marks <- b
  end;
  Bytes.set_uint16_ne r.marks (2 * l) tr.code;
  if r.ncells = Array.length r.cells then r.cells <- grown r.cells 0;
  r.cells.(r.ncells) <- l;
  r.ncells <- r.ncells + 1

let next_frame (k : Types.cont) =
  match k with
  | Halt -> Types.Halt
  | Select { next; _ }
  | Assign { next; _ }
  | Push { next; _ }
  | Call { next; _ }
  | Return { next; _ }
  | Return_stack { next; _ } ->
      next

let rec visit tr l =
  if l >= tr.floor && mark tr.r l = 0 then
    match Store.find_opt tr.store l with
    | None -> ()
    | Some v ->
        record tr l;
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
  if
    Env.has_base env
    && not (List.exists (fun (_, b) -> Env.base_eq env b) tr.r.bases)
  then begin
    tr.r.bases <- (tr.at, env) :: tr.r.bases;
    match tr.world_base with
    | Some w when Env.base_eq env w ->
        (* built before the run: it names only old cells *)
        tr.met <- true
    | Some _ | None -> Env.iter_base (fun _ l -> visit tr l) env
  end

(* One frame's own roots, without the frames below it. *)
and trace_frame tr (k : Types.cont) =
  match k with
  | Halt -> ()
  | Select { env; _ } | Assign { env; _ } | Return { env; _ } ->
      trace_env tr env
  | Push { evaluated; env; _ } ->
      trace_env tr env;
      List.iter (fun (_, v) -> trace_value tr v) evaluated
  | Call { vals; _ } -> List.iter (trace_value tr) vals
  | Return_stack { dels; env; _ } ->
      (* The deletion set counts as an occurrence (§8): stack-allocated
         locations live until their frame returns, even when garbage. *)
      List.iter (visit tr) dels;
      trace_env tr env

and trace_cont tr (k : Types.cont) =
  match k with
  | Halt -> ()
  | _ ->
      trace_frame tr k;
      trace_cont tr (next_frame k)

(* [k]'s frames from depth [d] down to depth [w] + 1, bottom first,
   before [above]. *)
let rec frames_down k d w above =
  if d <= w then above else frames_down (next_frame k) (d - 1) w (k :: above)

(* The deepest depth at which [cont] is physically the recorded
   continuation (0 when there is none), [cont]'s frame there, and its
   frames above it, bottom first. Frames are immutable, so below that
   depth the two are one chain. *)
let stable_depth (r : record) cont =
  let rec walk a da b db above =
    if da = 0 then (0, a, above)
    else if da > db then walk (next_frame a) (da - 1) b db (a :: above)
    else if db > da then walk a da (next_frame b) (db - 1) above
    else if a == b then (da, a, above)
    else walk (next_frame a) (da - 1) (next_frame b) (db - 1) (a :: above)
  in
  walk cont (Types.cont_depth cont) r.top (Types.cont_depth r.top) []

(* Each write or removal since the last collection of a cell recorded
   at depth d lowers the watermark below d. *)
let watermark (r : record) store w =
  match Store.changes store with
  | None -> 0
  | Some locs ->
      List.fold_left
        (fun w l ->
          if l < r.floor then w
          else
            let d = mark r l in
            if d > 0 && d - 1 < w then d - 1 else w)
        w locs

(* Unmark the cells recorded above [w] and keep them for the sweep. *)
let demote (r : record) w =
  let from = r.ends.(w) in
  let n = r.ncells - from in
  if n > Array.length r.demoted then r.demoted <- grown r.demoted n;
  for i = 0 to n - 1 do
    let l = r.cells.(from + i) in
    unmark r l;
    r.demoted.(i) <- l
  done;
  r.ndemoted <- n;
  r.ncells <- from;
  if List.exists (fun (d, _) -> d > w) r.bases then
    r.bases <- List.filter (fun (d, _) -> d <= w) r.bases

(* Trace [frames], the frames above [w] bottom first, then the
   registers. *)
let trace_above tr w frames ~value ~env =
  let r = tr.r in
  List.iteri
    (fun i k ->
      let d = w + 1 + i in
      tr.code <- min d deep;
      tr.at <- d;
      trace_frame tr k;
      r.ends.(d) <- r.ncells)
    frames;
  tr.code <- reg;
  tr.at <- max_int;
  trace_env tr env;
  Option.iter (trace_value tr) value

(* The unmarked candidates; a demoted cell may have been removed since
   (Store.sweep ignores it). *)
let sweep (r : record) store =
  let young =
    if r.floor = 0 then Store.cardinal store else Store.young_cardinal store
  in
  if r.ncells = young then []
  else begin
    let dead = ref [] in
    for i = 0 to r.ndemoted - 1 do
      let l = r.demoted.(i) in
      if mark r l = 0 then dead := l :: !dead
    done;
    Store.fold_from r.swept_to
      (fun l _ dead -> if mark r l = 0 then l :: dead else dead)
      store !dead
  end

let collect ?world ?history:h ?value ~env ~cont store =
  let r = Domain.DLS.get records in
  let owner = match h with Some h -> h | None -> history () in
  let first = Store.first_run_loc store in
  let world =
    match world with
    | Some w when (not w.lost) && first > 0 && not (Store.old_written store) ->
        Some w
    | Some _ | None -> None
  in
  let floor = if Option.is_none world then 0 else first in
  if r.owner <> owner || r.epoch <> Store.epoch store || r.floor <> floor
  then begin
    reset r ~floor;
    r.owner <- owner
  end;
  let depth = Types.cont_depth cont in
  if depth + 1 > Array.length r.ends then r.ends <- grown r.ends (depth + 1);
  let trace () =
    let stable, at_stable, above = stable_depth r cont in
    let w = watermark r store stable in
    demote r w;
    let world_base = Option.map (fun w -> w.genv) world in
    let met =
      match world_base with
      | Some wb -> List.exists (fun (_, b) -> Env.base_eq wb b) r.bases
      | None -> true
    in
    let tr = { r; store; floor; world_base; met; code = 0; at = 0 } in
    trace_above tr w
      (frames_down at_stable stable w above)
      ~value ~env;
    (match world with
    | Some w when not tr.met ->
        (* The world base is unreachable: start again as a full
           collection, from depth 0. *)
        w.lost <- true;
        forget r ~floor:0;
        trace_above
          { tr with floor = 0; world_base = None }
          0
          (frames_down cont depth 0 [])
          ~value ~env
    | Some _ | None -> ());
    r.top <- cont
  in
  (match trace () with
  | () -> ()
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      reset r ~floor:0;
      r.owner <- -1;
      Printexc.raise_with_backtrace e bt);
  let swept = Store.sweep store (sweep r store) in
  r.epoch <- Store.epoch swept;
  r.swept_to <- Store.next_loc swept;
  r.ndemoted <- 0;
  (swept, Store.cardinal store - Store.cardinal swept)

(* One-level occurrence check for the I_stack return rule. A cell names
   a location younger than itself only once written, so a candidate can
   occur only in the control value, in a cell at or above the first
   candidate, or in a written cell; the caller's environment and
   continuation were built before the candidates and are not scanned.
   Environment bases (built before the run) are not scanned either. *)
let occurs_in_retained ~candidates ~value ~retained =
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
  let first = Hashtbl.fold (fun l () m -> min l m) candidates max_int in
  if first < max_int then begin
    check_value value;
    Store.fold_from first (fun _ v () -> check_value v) retained ();
    Store.fold_written
      (fun l v () -> if l < first then check_value v)
      retained ()
  end;
  hit
