"""Entity-relationship queries over relational data: parsing, safety
checking, evaluation, reference domains, exact frequency statistics, and
level-wise rule mining."""

from .domains import (
    DomainTrace,
    ReferenceDomain,
    explain_reference_domain,
    reference_domain,
)
from .entities import (
    ErReport,
    ValidityReport,
    entity_variable_candidates,
    is_er_query,
    is_valid_for,
)
from .errors import (
    BiasError,
    DataError,
    EmptyDomainError,
    ErmineError,
    EvaluationError,
    InvalidRuleError,
    NotEntityQueryError,
    NotValidError,
    QueryParseError,
    SchemaError,
    UnsafeQueryError,
    ZeroAntecedentError,
)
from .evaluator import (
    PreparedQuery,
    Relation,
    evaluate,
    evaluate_naive,
    evaluation_vocabulary,
    satisfies,
    sorted_rows,
)
from .formulas import (
    And,
    Atom,
    Comparison,
    Constant,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    QueryDecl,
    Variable,
    conjunction,
    conjuncts_of,
    constants_of,
    equated_constants,
    free_variables,
    normalize,
    subformulas,
    to_text,
)
from .mining import (
    Candidate,
    FrequentQuery,
    LanguageBias,
    LevelStats,
    MinedRule,
    MiningResult,
    PoolItem,
    build_candidate,
    enumerate_level,
    load_bias,
    load_bias_file,
    mine,
    mine_frequent,
    mine_rules,
)
from .parser import parse_formula_text, parse_query, parse_query_file, tokenize
from .safety import (
    SafetyReport,
    Violation,
    check_safe,
    limited_variables,
)
from .schema import (
    DatabaseInstance,
    FieldDecl,
    Schema,
    TableDecl,
    entity_fields,
    is_entity_constant,
    load_instance,
    load_instance_dir,
    load_schema,
    load_schema_file,
    save_instance_dir,
)
from .stats import (
    ErRule,
    Frequency,
    checked_query,
    confidence,
    confidence_from_count,
    frequency,
    itemset_frequency,
    prepare_query,
    rule_statistics,
    support,
)

__version__ = "0.1.0"
