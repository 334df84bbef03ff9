(* One point's exact figures, as written to result files and to
   expected/<workload>.json. *)

module Json = Tailspace_telemetry.Telemetry.Json

type t = {
  label : string;
  variant : string;
  n : int;
  models : string list;
  steps : int;
  peaks : (string * int) list;
  gc_runs : int;
  attempts : int option;  (** known only from a traced or recorded run *)
  answer : string;
}

let to_json r =
  Json.Obj
    ([
       ("label", Json.Str r.label);
       ("variant", Json.Str r.variant);
       ("n", Json.Int r.n);
       ("models", Json.List (List.map (fun m -> Json.Str m) r.models));
       ("steps", Json.Int r.steps);
       ("peaks", Json.Obj (List.map (fun (m, p) -> (m, Json.Int p)) r.peaks));
       ("gc_runs", Json.Int r.gc_runs);
     ]
    @ (match r.attempts with
      | Some a -> [ ("attempts", Json.Int a) ]
      | None -> [])
    @ [ ("answer", Json.Str r.answer) ])

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "point: bad or missing field %S" name)

let int = function Json.Int i -> Some i | _ -> None
let str = function Json.Str s -> Some s | _ -> None

let all conv = function
  | Json.List xs ->
      List.fold_right
        (fun x acc -> Option.bind acc (fun l -> Option.map (fun v -> v :: l) (conv x)))
        xs (Some [])
  | _ -> None

let assoc conv = function
  | Json.Obj kvs ->
      List.fold_right
        (fun (k, v) acc ->
          Option.bind acc (fun l -> Option.map (fun v -> (k, v) :: l) (conv v)))
        kvs (Some [])
  | _ -> None

let of_json json =
  let* label = field "label" str json in
  let* variant = field "variant" str json in
  let* n = field "n" int json in
  let* models = field "models" (all str) json in
  let* steps = field "steps" int json in
  let* peaks = field "peaks" (assoc int) json in
  let* gc_runs = field "gc_runs" int json in
  let attempts = Option.bind (Json.member "attempts" json) int in
  let* answer = field "answer" str json in
  Ok { label; variant; n; models; steps; peaks; gc_runs; attempts; answer }

let list_of_json = function
  | Json.List xs ->
      List.fold_right
        (fun x acc ->
          let* l = acc in
          let* r = of_json x in
          Ok (r :: l))
        xs (Ok [])
  | _ -> Error "points: expected a list"

(* {1 Expected outputs} *)

let default_seed = 1998
let expected_path dir workload = Filename.concat dir (workload ^ ".json")

(* One point per line, so that a re-record reads as a per-point diff. *)
let write_expected dir ~workload records =
  let oc = open_out (expected_path dir workload) in
  Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"points\": [\n"
    (Json.to_string (Json.Str workload))
    default_seed;
  output_string oc
    (String.concat ",\n" (List.map (fun r -> Json.to_string (to_json r)) records));
  output_string oc "\n]}\n";
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_expected dir ~workload =
  match read_file (expected_path dir workload) with
  | exception Sys_error m -> Error m
  | text -> (
      let* json = Json.of_string text in
      match Json.member "points" json with
      | Some pts -> list_of_json pts
      | None -> Error "expected file: no points")

(* Where [expected] differs from [actual]; attempts are compared only
   when both sides know them. *)
let diff ~expected ~actual =
  let d = ref [] in
  let check what ok = if not ok then d := what :: !d in
  check "label" (expected.label = actual.label);
  check "variant" (expected.variant = actual.variant);
  check "n" (expected.n = actual.n);
  check "models" (expected.models = actual.models);
  check "steps" (expected.steps = actual.steps);
  check "peaks" (expected.peaks = actual.peaks);
  check "gc_runs" (expected.gc_runs = actual.gc_runs);
  (match (expected.attempts, actual.attempts) with
  | Some a, Some b -> check "attempts" (a = b)
  | _ -> ());
  check "answer" (expected.answer = actual.answer);
  List.rev !d
