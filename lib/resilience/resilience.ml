module Json = Tailspace_telemetry.Telemetry.Json

type abort_reason = Out_of_fuel of { limit : int }

let abort_reason_name (Out_of_fuel _) = "out-of-fuel"

let abort_reason_message (Out_of_fuel { limit }) =
  Printf.sprintf "out of fuel (limit %d steps)" limit

let abort_reason_to_json (Out_of_fuel { limit } as reason) : Json.t =
  Obj [ ("reason", Str (abort_reason_name reason)); ("limit", Int limit) ]
