module Iset = Tailspace_ast.Ast.Iset

(* Identifiers ordered by length, then by bytes. Distinct names mostly
   differ in length, and then one integer comparison settles them, where
   [String.compare] scans the shared prefix of names like [cadr] and
   [caddr] byte by byte. *)
module Key = struct
  type t = string

  let compare a b =
    let la = String.length a and lb = String.length b in
    if la = lb then String.compare a b else la - lb
end

module Smap = Map.Make (Key)

type loc = int
type t = { base : loc Smap.t; over : loc Smap.t; size : int }

let empty = { base = Smap.empty; over = Smap.empty; size = 0 }
let is_empty t = t.size = 0
let cardinal t = t.size

let find_opt x t =
  match Smap.find_opt x t.over with
  | Some _ as hit -> hit
  | None -> Smap.find_opt x t.base

let mem x t = Smap.mem x t.over || Smap.mem x t.base

let add x a t =
  let bound = mem x t in
  { t with over = Smap.add x a t.over; size = t.size + (if bound then 0 else 1) }

let add_list bs t = List.fold_left (fun acc (x, a) -> add x a acc) t bs

let rebase t =
  let merged = Smap.union (fun _ over _base -> Some over) t.over t.base in
  { base = merged; over = Smap.empty; size = Smap.cardinal merged }

let restrict t xs =
  (* When [xs] ⊇ Dom rho the restriction is the identity. Returning [t]
     unchanged keeps its base/overlay split, which is observationally
     equivalent (same domain, same locations, same cardinal) and lets
     later restrictions of the same env hit this path again. [xs] can
     only cover a domain no larger than itself; any other restriction
     looks up the members of [xs], so restricting an environment over
     the global base costs |xs| lookups, not a walk of every global. *)
  let covered m = Smap.for_all (fun x _ -> Iset.mem x xs) m in
  if t.size <= Iset.cardinal xs && covered t.over && covered t.base then t
  else
    let over =
      Iset.fold
        (fun x acc ->
          match find_opt x t with Some l -> Smap.add x l acc | None -> acc)
        xs Smap.empty
    in
    { base = Smap.empty; over; size = Smap.cardinal over }

let iter f t =
  Smap.iter f t.over;
  Smap.iter (fun x l -> if not (Smap.mem x t.over) then f x l) t.base

let fold f t init =
  let acc = Smap.fold f t.over init in
  Smap.fold (fun x l acc -> if Smap.mem x t.over then acc else f x l acc) t.base acc

let bindings t = fold (fun x l acc -> (x, l) :: acc) t []
let locations t = fold (fun _ l acc -> l :: acc) t []
let iter_overlay f t = Smap.iter f t.over
let has_base t = not (Smap.is_empty t.base)
let overlay_is_empty t = Smap.is_empty t.over
let base_eq a b = a.base == b.base
let iter_base f t = Smap.iter f t.base
let mem_base x t = Smap.mem x t.base
