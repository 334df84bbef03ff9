module Json = Tailspace_telemetry.Telemetry.Json

(* A site is an expanded-AST node id handed out by the annotation pass
   (insertion-ordered, so two machines that expand the same program in
   the same order agree on every id). Synthetic words that no program
   expression allocated — the globals built before the run, the Halt
   frame, the register environment, the control-register value — carry
   the pseudo-site [-1] and are distinguished by phase alone. *)

type phase =
  | P_rib  (** store cells allocated as parameter bindings by a call *)
  | P_frame  (** continuation-frame words (select/assign/push/call/return) *)
  | P_pair
  | P_vector
  | P_closure
  | P_escape
  | P_string
  | P_bignum  (** exact-integer cells: 1 + bit-length words of limbs *)
  | P_atom
  | P_register_env  (** the |Dom rho| term of the control register *)
  | P_control  (** the value in the accumulator at the peak *)
  | P_halt
  | P_globals  (** cells allocated before the measured run began *)
  | P_unreachable  (** defensive: cells the retainer walk never reached *)

let phase_name = function
  | P_rib -> "rib"
  | P_frame -> "frame"
  | P_pair -> "pair"
  | P_vector -> "vector"
  | P_closure -> "closure"
  | P_escape -> "escape"
  | P_string -> "string"
  | P_bignum -> "bignum"
  | P_atom -> "atom"
  | P_register_env -> "register-env"
  | P_control -> "control"
  | P_halt -> "halt"
  | P_globals -> "globals"
  | P_unreachable -> "unreachable"

type measure = Flat | Linked | Log

let measure_name = function Flat -> "flat" | Linked -> "linked" | Log -> "log"
let unit_name = function Flat | Linked -> "words" | Log -> "bits"

type row = {
  site : int;
  phase : phase;
  words : int;
  cells : int;  (** store cells attributed here; 0 for synthetic rows *)
  retained_by : (int * phase) list;
      (** roots whose retainer walk first reached a cell of this row *)
}

(* One collapsed flamegraph stack: the retainer path from a root
   (frame/env/control) down to the attributed words, innermost last. *)
type stack = { path : (int * phase) list; swords : int }

type t = {
  measure : measure;
  peak : int;  (** the telemetry peak this census decomposes, exactly *)
  rows : row list;
  stacks : stack list;
  labels : (int * string) list;
      (** site id -> source span (truncated expression text). Labels
          are advisory: gensym'd identifiers can differ between two
          machines that agree on every structural field. *)
}

let total c = List.fold_left (fun acc r -> acc + r.words) 0 c.rows

let label_of c site phase =
  if site < 0 then "<" ^ phase_name phase ^ ">"
  else
    match List.assoc_opt site c.labels with
    | Some l -> l
    | None -> Printf.sprintf "s%d" site

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let key_json (site, phase) =
  Json.Obj [ ("site", Json.Int site); ("phase", Json.Str (phase_name phase)) ]

let row_json ~with_labels c r =
  Json.Obj
    ([
       ("site", Json.Int r.site);
       ("phase", Json.Str (phase_name r.phase));
       ("words", Json.Int r.words);
       ("cells", Json.Int r.cells);
       ("retained_by", Json.List (List.map key_json r.retained_by));
     ]
    @
    if with_labels then [ ("label", Json.Str (label_of c r.site r.phase)) ]
    else [])

let to_json ?(with_labels = true) c =
  Json.Obj
    [
      ("measure", Json.Str (measure_name c.measure));
      ("peak", Json.Int c.peak);
      ("total", Json.Int (total c));
      ("rows", Json.List (List.map (row_json ~with_labels c) c.rows));
      ( "stacks",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("path", Json.List (List.map key_json s.path));
                   ("words", Json.Int s.swords);
                 ])
             c.stacks) );
    ]

(* ------------------------------------------------------------------ *)
(* Flamegraph export: one collapsed stack per line, `a;b;c words`,
   ready for flamegraph.pl or speedscope. Frame labels flatten their
   separator characters so the collapsed syntax stays parseable.       *)

let flame_escape s =
  String.map (fun ch -> match ch with ';' | ' ' | '\n' -> '_' | c -> c) s

let flamegraph_lines c =
  List.map
    (fun s ->
      let labels =
        List.map (fun (site, ph) -> flame_escape (label_of c site ph)) s.path
      in
      Printf.sprintf "%s %d" (String.concat ";" labels) s.swords)
    c.stacks

(* ------------------------------------------------------------------ *)
(* Per-site deltas between two censuses of the same program (the
   --diff VARIANT_A VARIANT_B view): every (site, phase) key present
   in either census, with its word count under each.                   *)

type delta = {
  dsite : int;
  dphase : phase;
  words_a : int;
  words_b : int;
  dlabel : string;
}

let diff a b =
  let tbl = Hashtbl.create 64 in
  let note from_a r =
    let key = (r.site, r.phase) in
    let wa, wb =
      match Hashtbl.find_opt tbl key with Some (x, y) -> (x, y) | None -> (0, 0)
    in
    Hashtbl.replace tbl key
      (if from_a then (wa + r.words, wb) else (wa, wb + r.words))
  in
  List.iter (note true) a.rows;
  List.iter (note false) b.rows;
  let ds =
    Hashtbl.fold
      (fun (site, phase) (wa, wb) acc ->
        {
          dsite = site;
          dphase = phase;
          words_a = wa;
          words_b = wb;
          dlabel =
            (let la = label_of a site phase in
             if site >= 0 && not (List.mem_assoc site a.labels) then
               label_of b site phase
             else la);
        }
        :: acc)
      tbl []
  in
  (* Largest absolute delta first: the sites carrying an asymptotic gap
     surface at the top of the table. *)
  List.sort
    (fun x y ->
      match compare (abs (y.words_b - y.words_a)) (abs (x.words_b - x.words_a)) with
      | 0 -> compare (x.dsite, x.dphase) (y.dsite, y.dphase)
      | c -> c)
    ds

(* ------------------------------------------------------------------ *)
(* Humanized units for log lines: exact word counts are for tables and
   JSON; a regression-gate message wants "1.2M words (+8.3%)".         *)

let humanize_words ?(unit = "words") w =
  let f = float_of_int (abs w) in
  let sign = if w < 0 then "-" else "" in
  if abs w < 10_000 then Printf.sprintf "%d %s" w unit
  else if f < 1e6 then Printf.sprintf "%s%.1fk %s" sign (f /. 1e3) unit
  else if f < 1e9 then Printf.sprintf "%s%.1fM %s" sign (f /. 1e6) unit
  else Printf.sprintf "%s%.1fG %s" sign (f /. 1e9) unit

let percent_delta ~from ~to_ =
  if from = 0 then (if to_ = 0 then 0.0 else infinity)
  else float_of_int (to_ - from) *. 100.0 /. float_of_int from
