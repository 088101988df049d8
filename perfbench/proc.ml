(* Processes and connections: the daemon under test, its TCP clients
   (newline JSON and HTTP/1.1), and one-shot CLI invocations. *)

let now = Unix.gettimeofday

let rec retry f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry f

(* ---- client connections ------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable data : Bytes.t;
  mutable head : int;  (** first unconsumed byte *)
  mutable tail : int;  (** end of received bytes *)
}

let send c s =
  let rec go off =
    if off < String.length s then
      go (off + retry (fun () -> Unix.write_substring c.fd s off (String.length s - off)))
  in
  go 0

(* One read into the buffer; false at end of stream. *)
let fill c =
  if c.tail = Bytes.length c.data then begin
    let live = c.tail - c.head in
    let data =
      if live * 2 > Bytes.length c.data then Bytes.create (2 * Bytes.length c.data)
      else c.data
    in
    Bytes.blit c.data c.head data 0 live;
    c.data <- data;
    c.head <- 0;
    c.tail <- live
  end;
  match retry (fun () -> Unix.read c.fd c.data c.tail (Bytes.length c.data - c.tail)) with
  | 0 -> false
  | n ->
    c.tail <- c.tail + n;
    true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let find c from pattern =
  let n = String.length pattern in
  let rec matches i k = k = n || (Bytes.get c.data (i + k) = pattern.[k] && matches i (k + 1)) in
  let rec go i = if i + n > c.tail then None else if matches i 0 then Some i else go (i + 1) in
  go from

let take c len skip =
  let s = Bytes.sub_string c.data c.head len in
  c.head <- c.head + len + skip;
  if c.head = c.tail then begin
    c.head <- 0;
    c.tail <- 0
  end;
  s

(* A complete reply line already buffered, if any. *)
let take_line c =
  match Bytes.index_from_opt c.data c.head '\n' with
  | Some i when i < c.tail -> Some (take c (i - c.head) 1)
  | _ -> None

(* A complete HTTP/1.1 response body already buffered, if any. *)
let take_http c =
  match find c c.head "\r\n\r\n" with
  | None -> None
  | Some hdr_end ->
    let head = Bytes.sub_string c.data c.head (hdr_end - c.head) in
    let length =
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i
            when String.lowercase_ascii (String.trim (String.sub l 0 i))
                 = "content-length" ->
            int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        (String.split_on_char '\n' head)
    in
    let body = hdr_end + 4 in
    (match length with
    | Some n when body + n <= c.tail ->
      c.head <- body;
      Some (take c n 0)
    | Some _ -> None
    | None -> failwith "HTTP reply without Content-Length")

let rec read_line c =
  match take_line c with
  | Some l -> l
  | None -> if fill c then read_line c else failwith "connection closed"

let http_post body =
  Printf.sprintf
    "POST / HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

let connect ~port ~alive =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let deadline = now () +. 20. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      { fd; data = Bytes.create 65536; head = 0; tail = 0 }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EINTR | Unix.EAGAIN), _, _)
      when now () < deadline && alive () ->
      Unix.close fd;
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ---- the daemon -------------------------------------------------- *)

type daemon = { pid : int; port : int; conn : conn; setup_s : float }

let live_pids : int list ref = ref []

let reap pid =
  live_pids := List.filter (( <> ) pid) !live_pids;
  let deadline = now () +. 10. in
  let rec go () =
    match retry (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (retry (fun () -> Unix.waitpid [] pid))
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

(* Never leave a daemon behind, whatever ends the run. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (retry (fun () -> Unix.waitpid [] pid)) with Unix.Unix_error _ -> ())
        !live_pids)

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)

let ping = "{\"kind\":\"ping\"}"

(* Start `nanobound serve --tcp` and time it until it has answered a
   ping on the connection the workload then uses. *)
let launch ~exe ~args ~log =
  let port = free_port () in
  let argv =
    Array.of_list
      (exe :: "serve" :: "--tcp" :: Printf.sprintf "127.0.0.1:%d" port :: args)
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = now () in
  let pid = Unix.create_process exe argv devnull logfd logfd in
  live_pids := pid :: !live_pids;
  Unix.close devnull;
  Unix.close logfd;
  let alive () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _ ->
      live_pids := List.filter (( <> ) pid) !live_pids;
      false
  in
  let conn = connect ~port ~alive in
  send conn (ping ^ "\n");
  ignore (read_line conn);
  { pid; port; conn; setup_s = now () -. t0 }

let request d line =
  send d.conn (line ^ "\n");
  read_line d.conn

let stop d =
  (try ignore (request d "{\"kind\":\"shutdown\"}") with _ -> ());
  close_conn d.conn;
  reap d.pid

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"

(* ---- one-shot CLI invocations ------------------------------------ *)

(* Spawn, collect stdout, wait: (stdout, exit code or -1 when killed by
   a signal, wall seconds from spawn to exit). *)
let run_capture exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) devnull w devnull in
  Unix.close w;
  Unix.close devnull;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match retry (fun () -> Unix.read r chunk 0 (Bytes.length chunk)) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close r;
  let _, status = retry (fun () -> Unix.waitpid [] pid) in
  let wall = now () -. t0 in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (Buffer.contents buf, code, wall)
