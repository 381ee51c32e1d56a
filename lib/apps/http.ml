open Smapp_sim
open Smapp_mptcp

let request_bytes = 120 (* a GET line plus headers *)

let server endpoint ~port ~response_bytes =
  Endpoint.listen endpoint ~port (fun conn ->
      let got = ref 0 in
      Connection.set_receive conn (fun len ->
          let before = !got in
          got := !got + len;
          (* answer once the (fixed-size) request is fully in *)
          if before < request_bytes && !got >= request_bytes then begin
            Connection.send conn response_bytes;
            Connection.close conn
          end))

type client_stats = {
  mutable completed : int;
  mutable failed : int;
  mutable response_times : float list;
}

let client endpoint ~src ~dst ~response_bytes ~requests ~on_done () =
  let stats = { completed = 0; failed = 0; response_times = [] } in
  let engine = Endpoint.engine endpoint in
  let rec issue remaining =
    if remaining <= 0 then on_done stats
    else begin
      let started = Engine.now engine in
      let conn = Endpoint.connect endpoint ~src ~dst () in
      let received = ref 0 in
      let settled = ref false in
      (* like a real HTTP/1.0 client, move on as soon as the response body is
         fully read — TCP teardown of the old connection overlaps the next
         request *)
      let next () =
        if not !settled then begin
          settled := true;
          ignore (Engine.after engine (Time.span_ms 1) (fun () -> issue (remaining - 1)))
        end
      in
      Connection.set_receive conn (fun len ->
          received := !received + len;
          if !received >= response_bytes && not !settled then begin
            stats.completed <- stats.completed + 1;
            stats.response_times <-
              Time.span_to_float_s (Time.diff (Engine.now engine) started)
              :: stats.response_times;
            next ()
          end);
      Connection.subscribe conn (function
        | Connection.Established -> Connection.send conn request_bytes
        | Connection.Closed ->
            if !received < response_bytes then stats.failed <- stats.failed + 1;
            next ()
        | _ -> ())
    end
  in
  issue requests;
  stats
