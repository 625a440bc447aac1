module Complexity = Gp_concepts.Complexity
module Json = Gp_telemetry.Json

type verdict = Pass | Violation

type entry = {
  e_series : Sweep.series;
  e_fits : Fit.fitted list;
  e_best : Fit.fitted;
  e_declared : Fit.fitted;
  e_slope : float;
  e_verdict : verdict;
  e_ok : bool;
}

(* 0.15 in log space (about 16% systematic deviation): generous enough
   for edge effects and lower-order terms, far below the >= 0.7 gap a
   wrong growth class leaves across the ladder. *)
let residual_tolerance = 0.15

let data_of_series (s : Sweep.series) =
  let var = s.Sweep.sr_op.Sweep.op_var in
  List.map
    (fun (p : Sweep.point) ->
      {
        Fit.x = float_of_int p.Sweep.pt_n;
        y = p.Sweep.pt_y;
        env =
          (fun v ->
            if String.equal v var then float_of_int p.Sweep.pt_n
            else p.Sweep.pt_env v);
      })
    s.Sweep.sr_points

let analyze (s : Sweep.series) =
  let op = s.Sweep.sr_op in
  let data = data_of_series s in
  let fits, best = Fit.select ~var:op.Sweep.op_var data in
  let declared =
    Fit.fit
      ~label:(Complexity.to_string op.Sweep.op_declared)
      op.Sweep.op_declared data
  in
  let verdict =
    if
      Complexity.leq best.Fit.f_bound op.Sweep.op_declared
      || declared.Fit.f_residual <= residual_tolerance
    then Pass
    else Violation
  in
  {
    e_series = s;
    e_fits = fits;
    e_best = best;
    e_declared = declared;
    e_slope = Fit.loglog_slope data;
    e_verdict = verdict;
    e_ok = (match verdict with Violation -> true | Pass -> false)
           = op.Sweep.op_expect_violation;
  }

let fitted_degree (f : Fit.fitted) =
  match Complexity.basis f.Fit.f_bound with
  | [ [] ] -> 0.0
  | [ [ (_, poly, log) ] ] ->
    float_of_int poly +. (0.5 *. float_of_int log)
  | _ ->
    (* multi-variable / multi-term bounds have no single exponent *)
    Float.nan

let verdict_name = function Pass -> "pass" | Violation -> "violation"

let expectation_name (op : Sweep.op) =
  if op.Sweep.op_expect_violation then "violation" else "pass"

let table ppf entries =
  (* the operation column is as wide as the longest name *)
  let w =
    List.fold_left
      (fun w e -> max w (String.length e.e_series.Sweep.sr_op.Sweep.op_name))
      22 entries
  in
  Fmt.pf ppf "%-*s %-9s %-12s %-11s %8s %8s %6s  %s@." w "operation"
    "subsystem" "declared" "best fit" "resid" "decl-res" "slope" "verdict";
  List.iter
    (fun e ->
      let op = e.e_series.Sweep.sr_op in
      Fmt.pf ppf "%-*s %-9s %-12s %-11s %8.3f %8.3f %6.2f  %s%s@." w
        op.Sweep.op_name op.Sweep.op_category
        (Complexity.to_string op.Sweep.op_declared)
        ("O(" ^ e.e_best.Fit.f_label ^ ")")
        e.e_best.Fit.f_residual e.e_declared.Fit.f_residual e.e_slope
        (verdict_name e.e_verdict)
        (if op.Sweep.op_expect_violation then " (planted)"
         else if not e.e_ok then " (UNEXPECTED)"
         else ""))
    entries;
  let unexpected = List.filter (fun e -> not e.e_ok) entries in
  Fmt.pf ppf "@.%d operation(s), %d verdict(s) as expected, %d unexpected@."
    (List.length entries)
    (List.length entries - List.length unexpected)
    (List.length unexpected)

let json_float x =
  if Float.is_nan x then "null" else Printf.sprintf "%.6g" x

let to_json entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"ops\": [\n";
  List.iteri
    (fun i e ->
      let op = e.e_series.Sweep.sr_op in
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"op\": %s, \"subsystem\": %s, \"declared\": %s, \
            \"best_fit\": %s, \"coeff\": %s, \"residual\": %s, \
            \"declared_residual\": %s, \"fitted_degree\": %s, \"slope\": %s, \
            \"verdict\": \"%s\", \"expected\": \"%s\", \"points\": [%s]}"
           (Json.str op.Sweep.op_name)
           (Json.str op.Sweep.op_category)
           (Json.str (Complexity.to_string op.Sweep.op_declared))
           (Json.str e.e_best.Fit.f_label)
           (json_float e.e_best.Fit.f_coeff)
           (json_float e.e_best.Fit.f_residual)
           (json_float e.e_declared.Fit.f_residual)
           (json_float (fitted_degree e.e_best))
           (json_float e.e_slope)
           (verdict_name e.e_verdict)
           (expectation_name op)
           (String.concat ", "
              (List.map
                 (fun (p : Sweep.point) ->
                   Printf.sprintf "[%d, %s]" p.Sweep.pt_n
                     (json_float p.Sweep.pt_y))
                 e.e_series.Sweep.sr_points))))
    entries;
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"ok\": %b\n}\n"
       (List.for_all (fun e -> e.e_ok) entries));
  Buffer.contents b

let export_metrics metrics entries =
  let open Gp_telemetry in
  Metrics.declare metrics ~kind:Metrics.Gauge ~name:"gp_complexity_fitted_degree"
    ~help:"Best-fit growth exponent per operation (poly + 0.5 per log factor)";
  Metrics.declare metrics ~kind:Metrics.Gauge ~name:"gp_complexity_residual"
    ~help:"Log-space RMS residual of the best vocabulary fit";
  Metrics.declare metrics ~kind:Metrics.Gauge ~name:"gp_complexity_violation"
    ~help:"1 when the operation's measured growth violates its declared bound";
  List.iter
    (fun e ->
      let labels = [ ("op", e.e_series.Sweep.sr_op.Sweep.op_name) ] in
      let deg = fitted_degree e.e_best in
      if not (Float.is_nan deg) then
        Metrics.set metrics ~labels "gp_complexity_fitted_degree" deg;
      Metrics.set metrics ~labels "gp_complexity_residual"
        e.e_best.Fit.f_residual;
      Metrics.set metrics ~labels "gp_complexity_violation"
        (match e.e_verdict with Violation -> 1.0 | Pass -> 0.0))
    entries

let ok entries = List.for_all (fun e -> e.e_ok) entries
