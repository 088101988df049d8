(* The socket tier end to end: TCP transport, HTTP front end, worker
   sharding, journal-backed restarts, admission control, and the
   syscall-level crash bugs (EINTR storms, mid-request disconnects,
   oversized pipelining) that used to kill daemon or client. Servers
   run as forked children over a pre-bound port-0 listener, so tests
   never race on port numbers. *)

module Service = Nano_service.Service
module Client = Nano_service.Client
module Protocol = Nano_service.Protocol
module Net = Nano_service.Net
module Json = Nano_util.Json

let base_config ?(jobs = 1) ?(workers = 0) ?journal
    ?(max_bytes = 8 * 1024 * 1024) ?(max_pending = 1024) () =
  {
    (Service.default_config ()) with
    Service.jobs;
    workers;
    journal;
    max_request_bytes = max_bytes;
    max_pending;
  }

(* Fork a daemon on a listener the parent already bound (port 0, so
   the kernel picks), hand the port to [f], then reap — escalating to
   SIGKILL only if shutdown never landed. The backlog holds the soak's
   200 back-to-back connects, so none waits out a SYN retransmit. *)
let with_server ?(config = base_config ()) ?(signal_storm = false) f =
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen_fd 256;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  match Unix.fork () with
  | 0 ->
    (try
       if signal_storm then begin
         (* A SIGALRM every 0.5 ms for the daemon's whole life: every
            blocking syscall in the loop keeps getting interrupted. *)
         Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ()));
         ignore
           (Unix.setitimer Unix.ITIMER_REAL
              { Unix.it_interval = 0.0005; Unix.it_value = 0.0005 })
       end;
       let t = Service.create ~config () in
       Service.serve_listening t listen_fd;
       Service.close t
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close listen_fd;
    let result = try Ok (f port) with e -> Error e in
    let rec reap tries =
      match Net.retry_intr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
      | 0, _ ->
        if tries = 0 then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Net.retry_intr (fun () -> Unix.waitpid [] pid))
        end
        else begin
          Net.sleep 0.05;
          reap (tries - 1)
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap 200;
    (match result with Ok v -> v | Error e -> raise e)

let tcp_client port =
  match Client.connect (Client.Tcp ("127.0.0.1", port)) with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let req client line =
  match Client.request_line client line with
  | Ok reply -> reply
  | Error msg -> Alcotest.failf "request %s: %s" line msg

let shutdown client =
  Alcotest.(check string)
    "shutdown reply" {|{"ok":true,"result":"bye"}|}
    (req client {|{"kind":"shutdown"}|});
  Client.close client

(* Raw-socket helpers for the tests that speak bytes, not lines. *)
let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_raw fd s =
  if not (Net.write_all fd s) then Alcotest.fail "raw send: peer closed"

let recv_until fd pred =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go eof =
    let s = Buffer.contents buf in
    if pred s then s
    else if eof then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting on raw socket; got %S" s
    else begin
      match Net.retry_intr (fun () -> Unix.select [ fd ] [] [] 0.25) with
      | [], _, _ -> go false
      | _ -> (
        match Net.read_fd fd chunk with
        | `Data n ->
          Buffer.add_subbytes buf chunk 0 n;
          go false
        | `Again -> go false
        | `Eof | `Closed -> go true)
    end
  in
  go false

let count_newlines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

let lines_of s = String.split_on_char '\n' (String.trim s)

(* Replies the single-process engine would give — the byte-identity
   reference for every transport and worker topology. *)
let reference_replies config requests =
  let t =
    Service.create
      ~config:{ config with Service.workers = 0; journal = None }
      ()
  in
  List.map (Service.handle_line t) requests

let identity_requests =
  [
    {|{"kind":"ping"}|};
    {|{"kind":"bounds","epsilon":0.02,"delta":0.01}|};
    {|{"kind":"profile","circuit":"c17"}|};
    {|{"kind":"analyze","circuit":"c17","epsilons":[0.01,0.02]}|};
    {|{"kind":"analyze","circuit":"c17","epsilons":[0.01,0.02]}|};
    {|{"kind":"lint","circuit":"c17"}|};
    {|{"kind":"profile","circuit":"nosuch"}|};
    {|{"kind":"bounds","epsilon":0.9}|};
  ]

let check_identity ~config () =
  let expected = reference_replies config identity_requests in
  with_server ~config (fun port ->
      let c = tcp_client port in
      let got = List.map (req c) identity_requests in
      List.iteri
        (fun i (e, g) ->
          Alcotest.(check string) (Printf.sprintf "reply %d" i) e g)
        (List.combine expected got);
      shutdown c)

let test_tcp_byte_identity () = check_identity ~config:(base_config ()) ()

let test_workers_byte_identity () =
  check_identity ~config:(base_config ~workers:2 ()) ()

(* The member chain [result.journal.recovered] etc. out of a stats
   reply. *)
let stats_member reply path =
  match Json.parse reply with
  | Error _ -> Alcotest.failf "unparseable stats reply: %s" reply
  | Ok json ->
    List.fold_left
      (fun acc name ->
        match Json.member name acc with
        | Some v -> v
        | None -> Alcotest.failf "stats reply lacks %s: %s" name reply)
      json path

let test_journal_restart () =
  let path = Filename.temp_file "nanobound-tcp" ".journal" in
  Sys.remove path;
  let config = base_config ~journal:path () in
  let analyze = {|{"kind":"analyze","circuit":"rca8","epsilons":[0.015]}|} in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let cold = ref "" in
      with_server ~config (fun port ->
          let c = tcp_client port in
          cold := req c analyze;
          shutdown c);
      (* Same journal, fresh process: the reply must come back from the
         recovered cache, byte-identical. *)
      with_server ~config (fun port ->
          let c = tcp_client port in
          let warm = req c analyze in
          Alcotest.(check string) "warm reply survives restart" !cold warm;
          let stats = req c {|{"kind":"stats"}|} in
          (match stats_member stats [ "result"; "journal"; "recovered" ] with
          | Json.Int n when n >= 1 -> ()
          | v -> Alcotest.failf "expected recovered >= 1, got %s" (Json.to_string v));
          (match
             stats_member stats [ "result"; "caches"; "responses"; "hits" ]
           with
          | Json.Int 1 -> ()
          | v -> Alcotest.failf "expected 1 response hit, got %s" (Json.to_string v));
          shutdown c))

let test_signal_storm_daemon () =
  with_server ~signal_storm:true (fun port ->
      let c = tcp_client port in
      for _ = 1 to 100 do
        Alcotest.(check string)
          "pong under storm" {|{"ok":true,"result":"pong"}|}
          (req c {|{"kind":"ping"}|})
      done;
      let reply = req c {|{"kind":"analyze","circuit":"c17"}|} in
      Alcotest.(check bool) "analyze ok under storm" true
        (String.length reply > 2 && String.sub reply 0 10 = {|{"ok":true|});
      shutdown c)

let test_abrupt_disconnect () =
  with_server (fun port ->
      (* A client that asks for work and vanishes before the reply: the
         daemon must shrug, not die with EPIPE. *)
      let fd = raw_connect port in
      send_raw fd "{\"kind\":\"analyze\",\"circuit\":\"rca8\"}\n";
      Unix.close fd;
      let c = tcp_client port in
      Alcotest.(check string)
        "daemon survives" {|{"ok":true,"result":"pong"}|}
        (req c {|{"kind":"ping"}|});
      shutdown c)

let oversized_line max_bytes = String.make (max_bytes + 1000) 'x'

let test_oversized_pipelined () =
  let max_bytes = 4096 in
  let config = base_config ~max_bytes () in
  let oversized = Protocol.error_reply ~code:"oversized"
      ~message:(Printf.sprintf "request exceeds %d bytes" max_bytes)
  in
  with_server ~config (fun port ->
      (* Case 1: the newline never arrives before the bound trips — the
         daemon answers early and discards the rest of the line. *)
      let fd = raw_connect port in
      send_raw fd (oversized_line max_bytes);
      let first = recv_until fd (fun s -> count_newlines s >= 1) in
      Alcotest.(check string) "early oversized error" oversized
        (String.trim first);
      send_raw fd "\n{\"kind\":\"ping\"}\n";
      let second = recv_until fd (fun s -> count_newlines s >= 1) in
      Alcotest.(check string)
        "connection still usable" {|{"ok":true,"result":"pong"}|}
        (String.trim second);
      Unix.close fd;
      (* Case 2: oversized line and valid line arrive in one chunk. *)
      let fd = raw_connect port in
      send_raw fd (oversized_line max_bytes ^ "\n{\"kind\":\"ping\"}\n");
      let replies = recv_until fd (fun s -> count_newlines s >= 2) in
      (match lines_of replies with
      | [ a; b ] ->
        Alcotest.(check string) "oversized first" oversized a;
        Alcotest.(check string)
          "then pong" {|{"ok":true,"result":"pong"}|} b
      | other ->
        Alcotest.failf "expected 2 replies, got %d" (List.length other));
      Unix.close fd;
      let c = tcp_client port in
      shutdown c)

let test_overload_admission () =
  let config = base_config ~max_pending:2 () in
  with_server ~config (fun port ->
      let fd = raw_connect port in
      let n = 8 in
      let burst = String.concat "" (List.init n (fun _ -> "{\"kind\":\"ping\"}\n")) in
      send_raw fd burst;
      let replies = recv_until fd (fun s -> count_newlines s >= n) in
      let replies = lines_of replies in
      Alcotest.(check int) "one reply per request" n (List.length replies);
      let pongs, sheds =
        List.partition (( = ) {|{"ok":true,"result":"pong"}|}) replies
      in
      Alcotest.(check int) "admitted up to max_pending" 2 (List.length pongs);
      List.iter
        (fun r ->
          Alcotest.(check string) "structured overload reply"
            Protocol.overloaded_reply r)
        sheds;
      (* Order: the admitted prefix answers first, the shed suffix after
         — request order is preserved on the wire. *)
      (match replies with
      | first :: second :: _ ->
        Alcotest.(check string) "first admitted"
          {|{"ok":true,"result":"pong"}|} first;
        Alcotest.(check string) "second admitted"
          {|{"ok":true,"result":"pong"}|} second
      | _ -> Alcotest.fail "missing replies");
      Unix.close fd;
      let c = tcp_client port in
      shutdown c)

(* ---- concurrent soak ------------------------------------------------ *)

(* 200 clients hold their sockets open for ten rounds of one bounds
   request each, against an inline and a 2-worker daemon. Every round
   is written in full before any reply is read, so the daemon sees all
   200 requests in flight at once. The key rotates over 64 epsilons, so
   the first pass is cold and the rest hit the cache. Every reply must
   arrive and equal the in-process bytes: a shed, lost or corrupted
   reply fails. *)
let test_concurrent_soak () =
  let clients = 200 and rounds = 10 in
  let line client round =
    Printf.sprintf {|{"kind":"bounds","epsilon":%g}|}
      (0.001 +. (0.0005 *. float_of_int (((client * 7) + round) mod 64)))
  in
  List.iter
    (fun workers ->
      let config =
        {
          (base_config ~workers ~max_pending:4096 ()) with
          Service.max_clients = clients + 8;
        }
      in
      let reference =
        Service.create
          ~config:{ config with Service.workers = 0; journal = None }
          ()
      in
      with_server ~config (fun port ->
          let fds = Array.init clients (fun _ -> raw_connect port) in
          for round = 0 to rounds - 1 do
            Array.iteri
              (fun client fd -> send_raw fd (line client round ^ "\n"))
              fds;
            Array.iteri
              (fun client fd ->
                let request = line client round in
                let reply = recv_until fd (fun s -> count_newlines s >= 1) in
                Alcotest.(check string)
                  (Printf.sprintf "workers=%d client %d round %d" workers
                     client round)
                  (Service.handle_line reference request ^ "\n")
                  reply)
              fds
          done;
          Array.iter Unix.close fds;
          shutdown (tcp_client port)))
    [ 0; 2 ]

(* ---- minimal HTTP front end ---------------------------------------- *)

let http_post body =
  Printf.sprintf
    "POST /api HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

let find_header_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let http_content_length head =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some j
        when String.lowercase_ascii (String.trim (String.sub line 0 j))
             = "content-length" ->
        int_of_string_opt
          (String.trim (String.sub line (j + 1) (String.length line - j - 1)))
      | _ -> None)
    (String.split_on_char '\n' head)

(* A complete HTTP reply: terminator seen and the whole declared body
   received. *)
let http_reply_complete s =
  match find_header_end s with
  | None -> false
  | Some i -> (
    match http_content_length (String.sub s 0 i) with
    | Some cl -> String.length s - i - 4 >= cl
    | None -> false)

let split_http_reply s =
  match find_header_end s with
  | None -> Alcotest.failf "no header terminator in %S" s
  | Some i ->
    let head = String.sub s 0 i in
    let body =
      match http_content_length head with
      | Some cl -> String.sub s (i + 4) cl
      | None -> String.sub s (i + 4) (String.length s - i - 4)
    in
    (head, body)

let test_http_post () =
  let config = base_config () in
  let expected_pong = List.hd (reference_replies config [ {|{"kind":"ping"}|} ]) in
  with_server ~config (fun port ->
      let fd = raw_connect port in
      (* Two POSTs on one connection: keep-alive works. *)
      send_raw fd (http_post {|{"kind":"ping"}|});
      let reply = recv_until fd http_reply_complete in
      let head, body = split_http_reply reply in
      Alcotest.(check bool) "200 status" true
        (String.length head >= 15 && String.sub head 0 15 = "HTTP/1.1 200 OK");
      Alcotest.(check string) "pong body" expected_pong body;
      send_raw fd (http_post {|{"kind":"bounds","epsilon":0.02}|});
      let reply2 = recv_until fd (fun s -> http_reply_complete s) in
      let _, body2 = split_http_reply reply2 in
      Alcotest.(check bool) "second reply ok" true
        (String.length body2 > 2 && String.sub body2 0 10 = {|{"ok":true|});
      Unix.close fd;
      (* Non-POST methods draw a structured 405 and a close. *)
      let fd = raw_connect port in
      send_raw fd "GET /api HTTP/1.1\r\nHost: localhost\r\n\r\n";
      let reply = recv_until fd http_reply_complete in
      Alcotest.(check bool) "405 status" true
        (String.length reply >= 12 && String.sub reply 9 3 = "405");
      Unix.close fd;
      let c = tcp_client port in
      shutdown c)

(* ---- client-side hardening ----------------------------------------- *)

let with_parent_storm f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.001; Unix.it_value = 0.001 });
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.; Unix.it_value = 0. });
      Sys.set_signal Sys.sigalrm previous)
    f

let test_client_connect_retry_under_storm () =
  let dir = Filename.temp_file "nanobound-sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "daemon.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.fork () with
      | 0 ->
        (try
           (* Bind late: the client's whole first wave of connects sees
              ENOENT and must keep retrying — under a signal storm. *)
           Net.sleep 0.3;
           let t = Service.create ~config:(base_config ()) () in
           Service.serve_unix t ~socket_path:path
         with _ -> ());
        Unix._exit 0
      | pid ->
        Fun.protect
          ~finally:(fun () ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Net.retry_intr (fun () -> Unix.waitpid [] pid)))
          (fun () ->
            with_parent_storm (fun () ->
                match Client.connect (Client.Unix_socket path) with
                | Error msg ->
                  Alcotest.failf "connect under storm failed: %s" msg
                | Ok c ->
                  Alcotest.(check string)
                    "pong after stormy connect"
                    {|{"ok":true,"result":"pong"}|}
                    (req c {|{"kind":"ping"}|});
                  shutdown c)))

let test_net_write_all_under_storm () =
  let total = 4 * 1024 * 1024 in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    (* Slow reader: drains in small sips so the writer's socket buffer
       stays full and its (blocking) writes park long enough for
       signals to land mid-syscall. Exit status carries the verdict. *)
    (try
       Unix.close a;
       let chunk = Bytes.create 65536 in
       let seen = ref 0 in
       let rec drain () =
         match Net.read_fd b chunk with
         | `Data n ->
           seen := !seen + n;
           Net.sleep 0.002;
           drain ()
         | `Again -> drain ()
         | `Eof | `Closed -> ()
       in
       drain ();
       Unix._exit (if !seen = total then 0 else 1)
     with _ -> Unix._exit 2)
  | pid ->
    Unix.close b;
    let ok =
      with_parent_storm (fun () -> Net.write_all a (String.make total 'y'))
    in
    Unix.close a;
    Alcotest.(check bool) "write_all survives the storm" true ok;
    (match Net.retry_intr (fun () -> Unix.waitpid [] pid) with
    | _, Unix.WEXITED 0 -> ()
    | _, status ->
      Alcotest.failf "reader saw a short stream (%s)"
        (match status with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))

(* ---- net unit tests ------------------------------------------------- *)

let test_parse_endpoint () =
  let check spec expected =
    let got =
      match Net.parse_endpoint spec with
      | `Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
      | `Unix p -> Printf.sprintf "unix:%s" p
    in
    Alcotest.(check string) spec expected got
  in
  check "127.0.0.1:8080" "tcp:127.0.0.1:8080";
  check "localhost:1234" "tcp:localhost:1234";
  check "[::1]:90" "tcp:::1:90";
  check "/tmp/daemon.sock" "unix:/tmp/daemon.sock";
  check "daemon.sock" "unix:daemon.sock";
  check "host:99999" "unix:host:99999";
  check "host:" "unix:host:"

let test_retry_intr () =
  let attempts = ref 0 in
  let v =
    Net.retry_intr (fun () ->
        incr attempts;
        if !attempts < 3 then
          raise (Unix.Unix_error (Unix.EINTR, "read", ""))
        else 42)
  in
  Alcotest.(check int) "value after retries" 42 v;
  Alcotest.(check int) "exactly 3 attempts" 3 !attempts

let suite =
  [
    Alcotest.test_case "net: parse_endpoint" `Quick test_parse_endpoint;
    Alcotest.test_case "net: retry_intr" `Quick test_retry_intr;
    Alcotest.test_case "net: write_all under signal storm" `Quick
      test_net_write_all_under_storm;
    Alcotest.test_case "tcp replies byte-identical to in-process" `Quick
      test_tcp_byte_identity;
    Alcotest.test_case "sharded workers byte-identical" `Quick
      test_workers_byte_identity;
    Alcotest.test_case "journal survives daemon restart" `Quick
      test_journal_restart;
    Alcotest.test_case "daemon survives a SIGALRM storm" `Quick
      test_signal_storm_daemon;
    Alcotest.test_case "daemon survives mid-request disconnect" `Quick
      test_abrupt_disconnect;
    Alcotest.test_case "oversized pipelined request" `Quick
      test_oversized_pipelined;
    Alcotest.test_case "admission control sheds load" `Quick
      test_overload_admission;
    Alcotest.test_case "200-client soak, inline and sharded" `Quick
      test_concurrent_soak;
    Alcotest.test_case "http post front end" `Quick test_http_post;
    Alcotest.test_case "client connect retries under signal storm" `Quick
      test_client_connect_retry_under_storm;
  ]
