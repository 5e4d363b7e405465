module Relation = Relational.Relation
module Database = Relational.Database
module Schema = Relational.Schema

let c_evals = Observe.counter "engine.evals"
let c_delta_evals = Observe.counter "engine.delta_evals"

let eval ?dist db q =
  Observe.bump c_evals;
  Query.eval ?dist db q

let plan = Query.plan
let explain ?dist db q = Plan.explain ?dist db (Query.plan db q)

type delta =
  | D_plan of Plan.delta
  | D_rq  (** the identity query on the delta relation itself *)
  | D_ident of Database.t * string
      (** the identity query on some other relation; looked up at
          evaluation time, like the legacy [Query.eval] *)
  | D_empty of Schema.t

let delta_prepare ?dist db ~rel ~schema q =
  match q with
  | Query.Fo fq -> D_plan (Plan.delta_prepare ?dist db ~rel ~schema fq)
  | Query.Dl p -> D_plan (Plan.delta_prepare_datalog ?dist db ~rel ~schema p)
  | Query.Identity r ->
      if r = rel then D_rq
      else D_ident (Database.add (Relation.empty schema) db, r)
  | Query.Empty_query -> D_empty Query.empty_schema

let delta_eval d rq =
  Observe.bump c_delta_evals;
  match d with
  | D_plan pd -> Plan.delta_eval pd rq
  | D_rq -> rq
  | D_ident (db, r) -> Database.find db r
  | D_empty sch -> Relation.empty sch

let delta_is_empty d rq =
  Observe.bump c_delta_evals;
  match d with
  | D_plan pd -> Plan.delta_is_empty pd rq
  | D_rq -> Relation.is_empty rq
  | D_ident (db, r) -> Relation.is_empty (Database.find db r)
  | D_empty _ -> true

let delta_cached_nodes = function
  | D_plan pd -> Plan.delta_cached_nodes pd
  | D_rq | D_ident _ | D_empty _ -> 0
