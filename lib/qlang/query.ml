module Relation = Relational.Relation
module Database = Relational.Database
module Schema = Relational.Schema

type t =
  | Fo of Ast.fo_query
  | Dl of Datalog.program
  | Identity of string
  | Empty_query

type lang =
  | L_sp
  | L_cq
  | L_ucq
  | L_efo_plus
  | L_fo
  | L_datalog_nr
  | L_datalog

let lang_to_string = function
  | L_sp -> "SP"
  | L_cq -> "CQ"
  | L_ucq -> "UCQ"
  | L_efo_plus -> "∃FO+"
  | L_fo -> "FO"
  | L_datalog_nr -> "DATALOGnr"
  | L_datalog -> "DATALOG"

let pp_lang ppf l = Format.pp_print_string ppf (lang_to_string l)

let all_langs = [ L_cq; L_ucq; L_efo_plus; L_datalog_nr; L_fo; L_datalog ]

let language = function
  | Identity _ | Empty_query -> L_sp
  | Fo q -> (
      match Fragment.classify_query q with
      | Fragment.Sp -> L_sp
      | Fragment.Cq -> L_cq
      | Fragment.Ucq -> L_ucq
      | Fragment.Efo_plus -> L_efo_plus
      | Fragment.Fo -> L_fo)
  | Dl p -> if Datalog.is_nonrecursive p then L_datalog_nr else L_datalog

let empty_schema = Schema.make "Empty" []

let answer_schema db = function
  | Fo q -> Ast.answer_schema q
  | Dl p -> Datalog.answer_schema p
  | Identity r -> Relation.schema (Database.find db r)
  | Empty_query -> empty_schema

let arity db q = Schema.arity (answer_schema db q)

(* All six languages evaluate through the physical-plan interpreter, with
   compiled plans cached per (query, revision fingerprint of the mentioned
   relations) — updates elsewhere in the database keep entries live. *)
let eval ?dist db = function
  | Fo q -> Plan.run ?dist db (Plan.compile_fo_cached db q)
  | Dl p -> Plan.run db (Plan.compile_datalog_cached db p)
  | Identity r -> Database.find db r
  | Empty_query -> Relation.empty empty_schema

let plan db = function
  | Fo q -> Plan.compile_fo_cached db q
  | Dl p -> Plan.compile_datalog_cached db p
  | Identity r -> Plan.identity r
  | Empty_query -> Plan.empty empty_schema

let is_empty_query = function
  | Empty_query -> true
  | Fo _ | Dl _ | Identity _ -> false

let rels = function
  | Fo q -> Ast.relations_used q.Ast.body
  | Dl p ->
      List.sort_uniq compare
        (List.concat_map
           (fun (r : Datalog.rule) ->
             r.Datalog.head.Ast.rel
             :: List.filter_map
                  (function
                    | Datalog.Rel a | Datalog.Neg a -> Some a.Ast.rel
                    | Datalog.Builtin _ -> None)
                  r.Datalog.body)
           p.Datalog.rules)
  | Identity r -> [ r ]
  | Empty_query -> []

let adom_sensitive db = function
  | Identity _ | Empty_query -> false
  | q -> Plan.adom_sensitive (plan db q)

let pp ppf = function
  | Fo q -> Pretty.pp_query ppf q
  | Dl p -> Pretty.pp_program ppf p
  | Identity r -> Format.fprintf ppf "identity(%s)" r
  | Empty_query -> Format.pp_print_string ppf "empty"

let to_string q = Format.asprintf "%a" pp q
