type t = Flat | Linked | Log

let all = [ Flat; Linked; Log ]
let rank = function Flat -> 0 | Linked -> 1 | Log -> 2
let compare a b = Int.compare (rank a) (rank b)
let equal a b = rank a = rank b
let name = function Flat -> "flat" | Linked -> "linked" | Log -> "log"

let of_name = function
  | "flat" -> Some Flat
  | "linked" -> Some Linked
  | "log" -> Some Log
  | _ -> None

let word_bits = 64
let to_bits model x = match model with Flat | Linked -> x * word_bits | Log -> x
let mem m ms = List.exists (equal m) ms

let normalize ms =
  List.filter (fun m -> mem m ms || equal m Flat) all
