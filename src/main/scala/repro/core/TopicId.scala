package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.dom.{PageDoc, PageTree}
import repro.kb.KnowledgeBase
import repro.util.Normalize

/** Page-topic identification — Algorithm 1 of the paper.
  *
  * Local step (per page, per partition): match text fields against the KB,
  * score every candidate entity by the Jaccard similarity between the page's
  * KB-known strings and the entity's object set (Eq. 1), and keep the top
  * few candidates with the XPaths of their mentions.
  *
  * Global steps (plain Scala on the driver, over the collected candidates —
  * at most five per page, so a Spark aggregation would cost more in planning
  * and shuffles than it saves):
  *  1. uniqueness filter — an entity that is the best candidate of
  *     `maxTopicPages`+ pages is discarded (the "Help" problem, §3.1.2);
  *  2. dominant XPath — count how often each XPath carries a best candidate
  *     across pages and rank paths by count.
  *
  * Final pass (per page): take the highest-ranked path present on the page,
  * and among KB entities matching the text at that path choose the one with
  * the highest Jaccard score.
  */
object TopicId {

  /** Chosen topic for a page. */
  case class PageTopic(
      site: String,
      pageId: String,
      cluster: Int,
      entityId: String,
      entityName: String,
      topicXpath: String,
      score: Double,
  )

  /** One scored topic candidate of one page; `rank` is 1 for the best. */
  case class TopicCand(
      site: String,
      pageId: String,
      cluster: Int,
      rank: Int,
      entityId: String,
      score: Double,
      paths: Seq[String],
  )

  /** Eq. 1: Jaccard similarity of the page's KB-known strings and the
    * entity's object set.
    */
  private def jaccard(pageSet: Set[String], entityId: String, kb: KnowledgeBase): Double = {
    val objs  = kb.objectsOf.getOrElse(entityId, Set.empty)
    val inter = (pageSet & objs).size
    val union = pageSet.size + objs.size - inter
    if (union == 0) 0.0 else inter.toDouble / union
  }

  /** Can a text field with this normalised content name a topic? */
  private def isCandidate(norm: String, kb: KnowledgeBase): Boolean =
    !Normalize.lowInformation(norm) && !kb.frequentValues(norm)

  /** Jaccard-scored candidates of one page, best first (Alg. 1 lines 2–9). */
  def scoreEntities(page: PageDoc, kb: KnowledgeBase, topK: Int = 5): Vector[(String, Double, Vector[String])] = {
    val pageSet = EntityMatch.pageStrings(page, kb)
    val candidateMentions: Map[String, Vector[String]] = page.textNodes
      .flatMap { n =>
        if (!isCandidate(n.norm, kb)) Vector.empty
        else kb.entitiesByName.getOrElse(n.norm, Set.empty).toVector.map(e => (e, n.xpath))
      }
      .groupMap(_._1)(_._2)
    candidateMentions.toVector
      .map { case (e, paths) => (e, jaccard(pageSet, e, kb), paths) }
      .filter(_._2 > 0)
      .sortBy { case (e, s, _) => (-s, e) }
      .take(topK)
  }

  /** [[scoreEntities]] of one page as ranked [[TopicCand]]s. */
  def candidates(page: PageDoc, kb: KnowledgeBase): Vector[TopicCand] =
    scoreEntities(page, kb).zipWithIndex.map { case ((e, s, paths), i) =>
      TopicCand(page.site, page.pageId, page.cluster, i + 1, e, s, paths)
    }

  /** Uniqueness filter: entities that are the best candidate of at least
    * `maxTopicPages` pages.
    */
  def blockedEntities(cands: Seq[TopicCand], maxTopicPages: Int): Set[String] =
    cands
      .filter(_.rank == 1)
      .groupMapReduce(_.entityId)(_ => 1)(_ + _)
      .collect { case (e, n) if n >= maxTopicPages => e }
      .toSet

  /** Dominant-XPath ranking: the best unblocked candidate of each
    * (site, page) votes for each of its mention paths; paths are ranked by
    * votes descending, then path ascending, and the first `topPaths` are
    * returned with their vote counts.
    */
  def rankPaths(cands: Seq[TopicCand], blocked: Set[String], topPaths: Int): Vector[(String, Int)] =
    cands
      .filterNot(c => blocked(c.entityId))
      .groupBy(c => (c.site, c.pageId))
      .values
      .flatMap(_.minBy(_.rank).paths)
      .groupMapReduce(identity)(_ => 1)(_ + _)
      .toVector
      .sortBy { case (path, n) => (-n, path) }
      .take(topPaths)

  /** Uniqueness filter: an entity that is the best candidate of this many
    * pages names none of them (§3.1.2).
    */
  val MaxTopicPages = 5

  /** Ranked paths the final pass tries, best first. */
  private val TopPaths = 100

  def identify(
      pages: Dataset[PageDoc],
      kbB: Broadcast[KnowledgeBase],
      maxTopicPages: Int = MaxTopicPages,
  )(implicit spark: SparkSession): Dataset[PageTopic] = {
    import spark.implicits._

    // ---- local candidate scoring (per partition), collected in one job --
    val cands: Vector[TopicCand] = pages
      .mapPartitions { it =>
        val kb = kbB.value
        it.flatMap(candidates(_, kb))
      }
      .collect()
      .toVector

    // ---- global steps on the driver -------------------------------------
    val blocked = blockedEntities(cands, maxTopicPages)
    val ranked  = rankPaths(cands, blocked, TopPaths).map(_._1)

    // ---- final per-page assignment --------------------------------------
    pages.mapPartitions { it =>
      val kb = kbB.value
      it.flatMap { p =>
        val tree = new PageTree(p)
        val chosen = for {
          path <- ranked.find(tree.contains)
          node <- tree.nodeAt(path)
          if isCandidate(node.norm, kb)
          pageSet = EntityMatch.pageStrings(p, kb)
          (e, s) <- kb.entitiesByName
            .getOrElse(node.norm, Set.empty)
            .filterNot(blocked)
            .toVector
            .map(e => (e, jaccard(pageSet, e, kb)))
            .filter(_._2 > 0)
            .sortBy { case (e, s) => (-s, e) }
            .headOption
        } yield PageTopic(p.site, p.pageId, p.cluster, e, kb.nameOf(e), path, s)
        chosen.iterator
      }
    }
  }
}
