module Imap = Map.Make (Int)

(* Each cell remembers the flat space of its value so removals and
   overwrites can adjust the running total without recomputation. *)
type cell = { v : Types.value; sz : int }

type t = {
  cells : cell Imap.t;
  space : int;
  count : int;
  next : Types.loc;
  first : Types.loc;
      (* the run's first location: the cells below it are the old
         generation (0 when there is none) *)
  written : bool;
      (* the write barrier: some old cell has been written since the
         run started, so old cells may point at young ones *)
  observe : (Types.value -> unit) option;
      (* allocation observer; survives the persistent updates so every
         store derived from an instrumented one reports its allocations
         (the telemetry layer attaches one per measured run) *)
  observe_loc : (Types.loc -> Types.value -> unit) option;
      (* like [observe] but also told the location being allocated;
         runs after every value observer (so a fault hook that raises
         abandons the allocation before this fires) — the provenance
         layer's site-tagging hook *)
}

let empty =
  {
    cells = Imap.empty;
    space = 0;
    count = 0;
    next = 0;
    first = 0;
    written = false;
    observe = None;
    observe_loc = None;
  }

let with_observer t observe = { t with observe }

let add_observer t f =
  match t.observe with
  | None -> { t with observe = Some f }
  | Some g ->
      {
        t with
        observe =
          Some
            (fun v ->
              g v;
              f v);
      }

let add_loc_observer t f =
  match t.observe_loc with
  | None -> { t with observe_loc = Some f }
  | Some g ->
      {
        t with
        observe_loc =
          Some
            (fun l v ->
              g l v;
              f l v);
      }

let alloc t v =
  (match t.observe with Some f -> f v | None -> ());
  (match t.observe_loc with Some f -> f t.next v | None -> ());
  let sz = Types.value_space v in
  ( {
      t with
      cells = Imap.add t.next { v; sz } t.cells;
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
  match Imap.find_opt l t.cells with Some c -> Some c.v | None -> None

let mem t l = Imap.mem l t.cells

let set t l v =
  match Imap.find_opt l t.cells with
  | None -> invalid_arg "Store.set: unallocated location"
  | Some old ->
      let sz = Types.value_space v in
      {
        t with
        cells = Imap.add l { v; sz } t.cells;
        space = t.space - old.sz + sz;
        written = t.written || l < t.first;
      }

let remove_all t locs =
  List.fold_left
    (fun t l ->
      match Imap.find_opt l t.cells with
      | None -> t
      | Some c ->
          {
            t with
            cells = Imap.remove l t.cells;
            space = t.space - 1 - c.sz;
            count = t.count - 1;
          })
    t locs

let cardinal t = t.count
let space t = t.space
let iter f t = Imap.iter (fun l c -> f l c.v) t.cells
let fold f t init = Imap.fold (fun l c acc -> f l c.v acc) t.cells init
let start_run t = { t with first = t.next; written = false }
let first_run_loc t = t.first
let old_written t = t.written

let fold_from lo f t init =
  if lo <= 0 then fold f t init
  else
    let _, at, above = Imap.split lo t.cells in
    let init = match at with Some c -> f lo c.v init | None -> init in
    Imap.fold (fun l c acc -> f l c.v acc) above init
