let magic = "NBJ1"
let header_bytes = 4 + 4 + 4 + 16 (* magic, key len, value len, md5 *)
let max_record_bytes = 64 * 1024 * 1024

exception Not_a_journal of string

type t = {
  path : string;
  fd : Unix.file_descr;
  mutable entries_recovered : int;
  mutable bytes_truncated : int;
  mutable appended : int;
  mutable closed : bool;
}

let u32_to_bytes b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let u32_of_string s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let checksum ~key ~value = Digest.string (key ^ value)

(* Read exactly [n] bytes at the current offset; [`Short] on a torn
   tail. EINTR is retried so a signal cannot fake a torn read. *)
let really_read fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Ok (Bytes.unsafe_to_string buf)
    else
      match Net.retry_intr (fun () -> Unix.read fd buf off (n - off)) with
      | 0 -> `Short
      | r -> go (off + r)
  in
  go 0

(* One record at the current offset: [`Record] advances the offset,
   anything else means the valid prefix ends here. *)
let read_record fd =
  match really_read fd header_bytes with
  | `Short -> `End
  | `Ok header ->
    if String.sub header 0 4 <> magic then `End
    else
      let key_len = u32_of_string header 4 in
      let value_len = u32_of_string header 8 in
      if
        key_len < 0 || value_len < 0
        || key_len + value_len + header_bytes > max_record_bytes
      then `End
      else begin
        match really_read fd (key_len + value_len) with
        | `Short -> `End
        | `Ok payload ->
          let key = String.sub payload 0 key_len in
          let value = String.sub payload key_len value_len in
          if String.sub header 12 16 = checksum ~key ~value then
            `Record (key, value)
          else `End
      end

(* A journal begins with a record, so its first bytes are the magic, or
   a prefix of it when the first append was torn. Any other non-empty
   file is someone else's data, which recovery must not truncate. *)
let foreign fd =
  let n = min (String.length magic) (Unix.fstat fd).Unix.st_size in
  match really_read fd n with
  | `Ok head -> head <> String.sub magic 0 n
  | `Short -> false

let refuse_foreign ~path fd =
  if foreign fd then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (Not_a_journal path)
  end;
  ignore (Net.retry_intr (fun () -> Unix.lseek fd 0 Unix.SEEK_SET))

let check ~path =
  if Sys.file_exists path then begin
    let fd =
      Net.retry_intr (fun () ->
          Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
    in
    refuse_foreign ~path fd;
    Unix.close fd
  end

let load ~path f =
  let fd =
    Net.retry_intr (fun () ->
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o600)
  in
  refuse_foreign ~path fd;
  let entries = ref 0 in
  let good = ref 0 in
  let rec replay () =
    match read_record fd with
    | `Record (key, value) ->
      good := Net.retry_intr (fun () -> Unix.lseek fd 0 Unix.SEEK_CUR);
      incr entries;
      f ~key ~value;
      replay ()
    | `End -> ()
  in
  replay ();
  let total = Net.retry_intr (fun () -> Unix.lseek fd 0 Unix.SEEK_END) in
  let truncated = total - !good in
  if truncated > 0 then begin
    Unix.ftruncate fd !good;
    ignore (Net.retry_intr (fun () -> Unix.lseek fd !good Unix.SEEK_SET))
  end;
  {
    path;
    fd;
    entries_recovered = !entries;
    bytes_truncated = truncated;
    appended = 0;
    closed = false;
  }

let append t ~key ~value =
  let key_len = String.length key and value_len = String.length value in
  if
    (not t.closed)
    && header_bytes + key_len + value_len <= max_record_bytes
  then begin
    (* One buffer, one write: either the whole record lands or recovery
       sees a torn tail and drops it — never a half-framed record
       followed by a good one. *)
    let record = Bytes.create (header_bytes + key_len + value_len) in
    Bytes.blit_string magic 0 record 0 4;
    u32_to_bytes record 4 key_len;
    u32_to_bytes record 8 value_len;
    Bytes.blit_string (checksum ~key ~value) 0 record 12 16;
    Bytes.blit_string key 0 record header_bytes key_len;
    Bytes.blit_string value 0 record (header_bytes + key_len) value_len;
    if Net.write_all t.fd (Bytes.unsafe_to_string record) then
      t.appended <- t.appended + 1
  end

let entries_recovered t = t.entries_recovered
let bytes_truncated t = t.bytes_truncated
let appended t = t.appended
let path t = t.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
