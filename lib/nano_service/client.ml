type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(retries = 100) ?(retry_interval = 0.05) endpoint =
  let rec attempt n =
    match
      match endpoint with
      | Unix_socket path -> Unix.ADDR_UNIX path
      | Tcp (host, port) -> Net.resolve_tcp host port
    with
    | exception Failure msg -> Error msg (* unresolvable host *)
    | addr -> (
      let fd =
        Unix.socket ~cloexec:true
          (Unix.domain_of_sockaddr addr)
          Unix.SOCK_STREAM 0
      in
      match Unix.connect fd addr with
      | () ->
        Ok
          {
            fd;
            ic = Unix.in_channel_of_descr fd;
            oc = Unix.out_channel_of_descr fd;
          }
      | exception Unix.Unix_error (err, _, _) -> (
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match err with
        (* ENOENT / ECONNREFUSED: the daemon is still binding (or
           restarting and yet to re-bind). ECONNRESET: it accepted and
           died mid-handshake — the restart race. EINTR: a signal
           landed inside the blocking connect, leaving the socket in
           an undefined state, so start over with a fresh one (the
           EINTR-safe {!Net.sleep} keeps the pacing even under a
           signal storm). *)
        | Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EAGAIN
        | Unix.EINTR | Unix.EALREADY | Unix.EINPROGRESS
          when n > 0 ->
          Net.sleep retry_interval;
          attempt (n - 1)
        | _ ->
          Error (endpoint_to_string endpoint ^ ": " ^ Unix.error_message err)))
  in
  attempt retries

let request_line t line =
  match
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc;
    input_line t.ic
  with
  | reply -> Ok reply
  | exception End_of_file -> Error "connection closed by the daemon"
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)

let close t = try close_out_noerr t.oc; close_in_noerr t.ic; Unix.close t.fd with _ -> ()
