(* A fixed request stream for `gp serve --file`, and the cache list of
   its `--stats-json` report: the golden `serve-lines.expected` pins the
   served bytes of a stream that repeats lines the way clients do.

   [serve_lines stream] prints the stream:
   - a mix of every kind, blank lines and malformed lines, with and
     without an [id], and pairs of lines one byte apart, in four
     rounds, each round in a different order, so every line repeats;
   - 1 040 distinct [prove] lines, each sent twice in a row, so more
     distinct lines repeat than a server's decoded-line table holds
     (1 024) and the table is emptied at least once; a mix line rides
     along every 100 lines;
   - the last 40 and the first 20 of those lines once more.

   [serve_lines caches FILE] prints the ["caches"] list of the report
   in FILE: the rest of the report holds latencies and GC counts. *)

let mix =
  [ {|{"kind":"check","concept":"IncidenceGraph","types":["adjacency_list"],"nominal":false}|};
    {|{"kind":"check","concept":"Container","types":["varray<int>"],"nominal":false}|};
    {|{"id":41,"kind":"check","concept":"Container","types":["varray<int>"],"nominal":true}|};
    {|{"kind":"check","concept":"Container","types":["varray<int>"],"nominal":false,"defs":"concept D<T> {\n  g : T -> T;\n}\n"}|};
    {|{"kind":"parse","source":"concept C<T> {\n  f : T -> T;\n}\n"}|};
    {|{"id":7,"kind":"lint","source":"vector<_> v0;\niter it0 = v0.begin();\nv0.push_back(1);\n*it0;\n"}|};
    {|{"kind":"closure","concept":"IncidenceGraph","types":["adjacency_list"]}|};
    {|{"kind":"optimize","expr":"x1 * 1 + 0","certified_only":true}|};
    {|{"kind":"optimize","expr":"x1 * 1 + 1","certified_only":true}|};
    {|{"kind":"prove","theory":"group","instance":"int[+]"}|};
    {|{"kind":"prove","theory":"group","instance":"int[-]"}|};
    {|{"kind":"prove","theory":"swo","instance":"string_lt"}|};
    {|{"kind":"prove","theory":"monoid"}|};
    {|{"kind":"matvec","structure":"diagonal","n":3,"seed":7}|};
    {|{"kind":"matvec","structure":"diagonal","n":3,"seed":8}|};
    {|{"id":9,"kind":"solve","structure":"lower","n":4,"seed":1}|};
    "";
    "   ";
    "not json";
    {|{"kind":"nosuch"}|};
    {|{"kind":"prove"|};
    {|{"kind":"prove","theory":"group",}|};
    {|{"id":"x","kind":"prove","theory":"ring"}|} ]

let bulk k = Printf.sprintf {|{"id":%d,"kind":"prove","theory":"ring"}|} (1000 + k)

let stream () =
  let mix = Array.of_list mix in
  let m = Array.length mix in
  (* 23 lines, and each step below is prime to 23 *)
  List.iter
    (fun step ->
      for i = 0 to m - 1 do
        print_endline mix.(i * step mod m)
      done)
    [ 1; 5; 7; 11 ];
  let n = 1040 in
  for k = 0 to n - 1 do
    if k mod 100 = 0 then print_endline mix.(k / 100 mod m);
    print_endline (bulk k);
    print_endline (bulk k)
  done;
  for k = n - 40 to n - 1 do
    print_endline (bulk k)
  done;
  for k = 0 to 19 do
    print_endline (bulk k)
  done

let caches file =
  let module Json = Gp_telemetry.Json in
  match
    Json.field "caches"
      (Json.parse (In_channel.with_open_text file In_channel.input_all))
  with
  | Some (Json.Arr cs) -> List.iter (fun c -> print_endline (Json.to_string c)) cs
  | _ -> failwith (file ^ ": no caches list")

let () =
  match Sys.argv with
  | [| _; "stream" |] -> stream ()
  | [| _; "caches"; file |] -> caches file
  | _ -> prerr_endline "usage: serve_lines (stream | caches FILE)"; exit 2
