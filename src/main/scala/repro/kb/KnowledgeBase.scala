package repro.kb

import repro.util.Normalize

/** Seed knowledge base with the driver-built indexes the pipeline broadcasts
  * to executors.
  *
  * All lookups are keyed by [[Normalize]]d strings, our stand-in for the
  * paper's fuzzy matcher (DESIGN.md §2).  Two indexes drive the pipeline:
  *
  *  - `entitiesByName`: candidate topic entities for a text field (Alg. 1);
  *  - `objectsOf`: the entitySet of a subject, for Jaccard scoring (Eq. 1)
  *    and for retrieving a topic's facts during annotation (Alg. 2).
  *
  * `frequentValues` implements the uniqueness pre-filter of §3.1.1: strings
  * appearing in at least `freqCutoff` of all triples are never topic
  * candidates (the paper uses 0.01% at 85M triples; the cutoff is a
  * parameter because our KBs are ~10^4 triples).
  */
final class KnowledgeBase(
    val triples: Vector[Triple],
    val freqCutoff: Double,
) extends Serializable {

  /** entityId -> display name. */
  val nameOf: Map[String, String] =
    triples.map(t => t.subjectId -> t.subjectName).toMap

  /** entityId -> ontology type (the KB statistics of Table 2). */
  val typeOf: Map[String, String] =
    triples.map(t => t.subjectId -> t.subjectType).toMap

  /** normalised name -> entity ids bearing it (names are ambiguous: "Pilot"). */
  val entitiesByName: Map[String, Set[String]] =
    triples.groupBy(t => Normalize(t.subjectName)).map { case (n, ts) => n -> ts.map(_.subjectId).toSet }

  /** entityId -> its triples. */
  val triplesOf: Map[String, Vector[Triple]] = triples.groupBy(_.subjectId)

  /** entityId -> normalised object values of its triples (the entitySet of Alg. 1). */
  val objectsOf: Map[String, Set[String]] =
    triplesOf.map { case (id, ts) => id -> ts.map(t => Normalize(t.obj)).toSet }

  /** normalised object value -> number of triples it is the object of. */
  private val objectCounts: Map[String, Int] =
    triples.groupMapReduce(t => Normalize(t.obj))(_ => 1)(_ + _)

  /** All predicates present in the seed KB — the classifier's class universe. */
  val predicates: Set[String] = triples.map(_.predicate).toSet

  /** Normalised strings occurring in >= freqCutoff fraction of triples
    * (as object values), excluded as topic candidates (§3.1.1 uniqueness).
    */
  val frequentValues: Set[String] = {
    val minCount = math.max(2L, math.ceil(freqCutoff * triples.size).toLong)
    objectCounts.collect { case (o, n) if n >= minCount => o }.toSet
  }

  /** Is the normalised string known to the KB at all (entity name or value)? */
  def knownString(norm: String): Boolean =
    entitiesByName.contains(norm) || objectCounts.contains(norm)

  def size: Int = triples.size
}

object KnowledgeBase {
  /** Default frequency cutoff scaled for our KB sizes (paper: 1e-4 at 85M). */
  val DefaultFreqCutoff = 0.005

  def apply(triples: Seq[Triple], freqCutoff: Double = DefaultFreqCutoff): KnowledgeBase =
    new KnowledgeBase(triples.toVector, freqCutoff)
}
