type t = Etimedout | Econnreset | Econnrefused | Enetunreach | Ehostunreach

let to_string = function
  | Etimedout -> "ETIMEDOUT"
  | Econnreset -> "ECONNRESET"
  | Econnrefused -> "ECONNREFUSED"
  | Enetunreach -> "ENETUNREACH"
  | Ehostunreach -> "EHOSTUNREACH"
