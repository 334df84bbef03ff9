module Iset = Set.Make (Int)

(* Each cell remembers the flat space of its value so removals and
   overwrites can adjust the running total without recomputation. *)
type cell = { v : Types.value; sz : int }

(* What writes and removals touch once a run has started (see
   [start_run]), kept out of the fields [alloc] copies. *)
type log = {
  barrier : bool;
      (* the write barrier: some old cell has been written since the
         run started, so old cells may point at young ones *)
  written : Iset.t;  (* cells written since [start_run], still present *)
  changed : Types.loc list;
      (* cells written or removed in this epoch, most recent first *)
  nchanged : int;  (* the length of [changed]; -1 once it overflowed *)
  epoch : int;
}

(* Set once per run, or when an old cell is removed. *)
type meta = {
  tracked : bool;  (* [start_run] was called: writes are logged *)
  first : Types.loc;
      (* the run's first location: the cells below it are the old
         generation (0 when there is none) *)
  old : int;  (* how many cells lie below [first] *)
  hook : (Types.loc -> Types.value -> unit) option;
      (* the allocation hook; survives the persistent updates so every
         store derived from an instrumented one reports its allocations *)
}

type t = {
  cells : cell Locmap.t;
  space : int;
  count : int;
  next : Types.loc;
  log : log;
  meta : meta;
}

(* Epochs are unique across domains: a collector recognises the store it
   swept last by its epoch alone. *)
let epochs = Atomic.make 1
let fresh_log =
  {
    barrier = false;
    written = Iset.empty;
    changed = [];
    nchanged = 0;
    epoch = 0;
  }

let empty =
  {
    cells = Locmap.empty;
    space = 0;
    count = 0;
    next = 0;
    log = fresh_log;
    meta =
      {
        tracked = false;
        first = 0;
        old = 0;
        hook = None;
      };
  }

let on_alloc t f =
  let hook =
    match t.meta.hook with
    | None -> f
    | Some g ->
        fun l v ->
          g l v;
          f l v
  in
  { t with meta = { t.meta with hook = Some hook } }

let alloc t v =
  (match t.meta.hook with Some f -> f t.next v | None -> ());
  let sz = Types.value_space v in
  ( {
      t with
      cells = Locmap.add t.next { v; sz } t.cells;
      space = t.space + 1 + sz;
      count = t.count + 1;
      next = t.next + 1;
    },
    t.next )

let alloc_many t vs =
  let t, rev_locs =
    List.fold_left
      (fun (t, locs) v ->
        let t, l = alloc t v in
        (t, l :: locs))
      (t, []) vs
  in
  (t, List.rev rev_locs)

let find_opt t l =
  match Locmap.find_opt l t.cells with Some c -> Some c.v | None -> None

let mem t l = Locmap.mem l t.cells

(* A change log longer than the store is worth no more than "everything
   changed", and is not kept. *)
let note_change ~count changed nchanged l =
  if nchanged < 0 || nchanged >= count then ([], -1)
  else (l :: changed, nchanged + 1)

let set t l v =
  match Locmap.find_opt l t.cells with
  | None -> invalid_arg "Store.set: unallocated location"
  | Some old ->
      let sz = Types.value_space v in
      let cells = Locmap.add l { v; sz } t.cells in
      let space = t.space - old.sz + sz in
      if not t.meta.tracked then { t with cells; space }
      else
        let log = t.log in
        let changed, nchanged =
          note_change ~count:t.count log.changed log.nchanged l
        in
        {
          t with
          cells;
          space;
          log =
            {
              log with
              barrier = log.barrier || l < t.meta.first;
              written = Iset.add l log.written;
              changed;
              nchanged;
            };
        }

(* Each dead cell leaves the map in one traversal, [Locmap.remove_found]
   handing its size to [removed]. *)
let remove ~note t locs =
  let first = t.meta.first and note = note && t.meta.tracked in
  let space = ref t.space and count = ref t.count and old = ref t.meta.old in
  let written = ref t.log.written in
  let changed = ref t.log.changed and nchanged = ref t.log.nchanged in
  let removed l c =
    if note then begin
      let ch, n = note_change ~count:t.count !changed !nchanged l in
      changed := ch;
      nchanged := n
    end;
    space := !space - 1 - c.sz;
    decr count;
    if l < first then decr old;
    if not (Iset.is_empty !written) then written := Iset.remove l !written
  in
  let cells =
    List.fold_left (fun cells l -> Locmap.remove_found l removed cells) t.cells locs
  in
  {
    t with
    cells;
    space = !space;
    count = !count;
    log = { t.log with written = !written; changed = !changed; nchanged = !nchanged };
    meta = (if !old = t.meta.old then t.meta else { t.meta with old = !old });
  }

let remove_all t locs = remove ~note:true t locs

let sweep t dead =
  let t = if dead = [] then t else remove ~note:false t dead in
  {
    t with
    log =
      {
        t.log with
        changed = [];
        nchanged = 0;
        epoch = Atomic.fetch_and_add epochs 1;
      };
  }

let cardinal t = t.count
let young_cardinal t = t.count - t.meta.old
let space t = t.space
let next_loc t = t.next
let iter f t = Locmap.iter (fun l c -> f l c.v) t.cells
let fold f t init = Locmap.fold (fun l c acc -> f l c.v acc) t.cells init

let start_run t =
  {
    t with
    log = { fresh_log with epoch = Atomic.fetch_and_add epochs 1 };
    meta = { t.meta with tracked = true; first = t.next; old = t.count };
  }

let first_run_loc t = t.meta.first
let old_written t = t.log.barrier
let epoch t = t.log.epoch
let changes t =
  if t.log.nchanged < 0 || not t.meta.tracked then None else Some t.log.changed

let fold_written f t init =
  if not t.meta.tracked then fold f t init
  else
    Iset.fold
      (fun l acc ->
        match Locmap.find_opt l t.cells with Some c -> f l c.v acc | None -> acc)
      t.log.written init

let fold_from lo f t init =
  Locmap.fold_from lo (fun l c acc -> f l c.v acc) t.cells init
