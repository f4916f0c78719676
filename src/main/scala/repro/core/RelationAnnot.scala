package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.cluster.XPathClustering
import repro.dom.{PageDoc, PageTree}
import repro.kb.KnowledgeBase
import repro.util.Normalize

/** Relation annotation — Algorithm 2 plus the §3.1.2 informativeness filter.
  *
  * For each topic page, the topic's KB triples are grouped by predicate and
  * each object is located on the page.  At most ONE mention per (predicate,
  * object) is annotated (§3.2: precision over recall):
  *
  *  - local evidence: the mention whose object-free ancestor subtree holds
  *    the most sibling objects of the same predicate wins (Example 3.1:
  *    Spike Lee's "acted in" mention is the one inside the cast list);
  *  - global evidence: ties — and predicates whose objects repeat on more
  *    than half the annotated pages — are resolved by preferring the
  *    mention whose XPath lies in the largest Levenshtein cluster of the
  *    predicate's mention paths across the site (Example 3.2).
  *
  * `annotateTopicOnly` is the CERES-Topic ablation: every mention of every
  * object is annotated with every applicable relation.
  */
object RelationAnnot {

  /** The reserved class label for the topic-name node (§4: "the DOM node
    * that contains the topic entity is considered as expressing the name
    * relation").
    */
  val NamePred = "__name__"

  case class Annotation(
      site: String,
      pageId: String,
      cluster: Int,
      xpath: String,
      predicate: String,
      value: String,
      topicId: String,
      topicName: String,
  )

  /** Internal: candidate mentions of one (page, predicate, object). */
  case class MentionCands(
      site: String,
      pageId: String,
      cluster: Int,
      predicate: String,
      value: String,
      topicId: String,
      topicName: String,
      allMentions: Seq[String],
      localBest: Seq[String],
  )

  /** BestLocalMention of Algorithm 2: for each mention, find the highest
    * ancestor containing it and no other mention of the same object, count
    * the predicate's other objects in that subtree, and keep the mentions
    * with the maximal count.
    */
  def bestLocalMentions(
      tree: PageTree,
      mentions: Vector[Int],
      objectNorms: Set[String],
  ): Vector[Int] = {
    if (mentions.size <= 1) return mentions
    val mentionSet = mentions.toSet
    var bestCount = -1
    var best      = Vector.empty[Int]
    mentions.foreach { m =>
      // Highest ancestor whose subtree contains no OTHER mention of the object.
      var anc  = m
      var cand = m
      val others = mentionSet - m
      var stop = false
      while (!stop) {
        val parent = tree.node(anc).parent
        if (parent < 0) stop = true
        else if (others.exists(o => tree.contains(parent, o))) stop = true
        else { anc = parent; cand = parent }
      }
      val neighborCount = tree.subtreeTexts(cand).count(t => objectNorms.contains(tree.node(t).norm))
      if (neighborCount > bestCount) { bestCount = neighborCount; best = Vector(m) }
      else if (neighborCount == bestCount) best = best :+ m
    }
    best
  }

  /** Collect candidate mentions for every (topic page, predicate, object). */
  private def collectCands(
      pages: Dataset[PageDoc],
      topics: Map[String, TopicId.PageTopic],
      kbB: Broadcast[KnowledgeBase],
  )(implicit spark: SparkSession): Dataset[MentionCands] = {
    import spark.implicits._
    pages.mapPartitions { it =>
      val kb = kbB.value
      it.flatMap { p =>
        topics.get(p.pageId) match {
          case None => Iterator.empty
          case Some(topic) =>
            val tree = new PageTree(p)
            // norm -> text-node ids, in document order.
            val idsByNorm = p.textNodes.groupMap(_.norm)(_.id)
            val triples   = kb.triplesOf.getOrElse(topic.entityId, Vector.empty)
            val byPred    = triples.groupBy(_.predicate)
            byPred.iterator.flatMap { case (pred, ts) =>
              val objects     = ts.map(t => (Normalize(t.obj), t.obj)).distinct
              val objectNorms = objects.map(_._1).toSet
              objects.flatMap { case (norm, raw) =>
                val ms = idsByNorm.getOrElse(norm, Vector.empty)
                if (ms.isEmpty) None
                else {
                  val best = bestLocalMentions(tree, ms, objectNorms)
                  Some(MentionCands(p.site, p.pageId, p.cluster, pred, raw,
                    topic.entityId, topic.entityName,
                    ms.map(tree.node(_).xpath), best.map(tree.node(_).xpath)))
                }
              }
            }
        }
      }
    }
  }

  /** Full annotation (Algorithms 1+2 combined output).
    *
    * @return (annotations, kept topics) after the informativeness filter:
    *         pages with fewer than `minAnnotations` relation annotations
    *         are discarded entirely (§3.1.2 Step 3).
    */
  def annotateFull(
      pages: Dataset[PageDoc],
      topics: Vector[TopicId.PageTopic],
      kbB: Broadcast[KnowledgeBase],
      minAnnotations: Int = 3,
  )(implicit spark: SparkSession): (Vector[Annotation], Vector[TopicId.PageTopic]) = {
    val cands = collectCands(pages, topics.map(t => t.pageId -> t).toMap, kbB).collect().toVector

    // ---- global evidence ------------------------------------------------
    val clustersByPred: Map[String, XPathClustering.Clusters] =
      cands.groupBy(_.predicate).map { case (pred, cs) =>
        val weighted = cs.flatMap(_.allMentions).groupBy(identity).map { case (p, xs) => p -> xs.size.toLong }
        val target   = cs.map(_.allMentions.size).maxOption.getOrElse(1)
        pred -> XPathClustering.cluster(weighted, target)
      }

    // Predicates where one object value recurs on > half of the pages that
    // have candidates for the predicate ("frequently duplicated").
    val dupFrequent: Set[String] = cands
      .groupBy(_.predicate)
      .collect { case (pred, cs) =>
        val nPages  = cs.map(_.pageId).distinct.size
        val maxByVal = cs.groupBy(c => Normalize(c.value)).values.map(_.map(_.pageId).distinct.size).maxOption.getOrElse(0)
        (pred, nPages, maxByVal)
      }
      .collect { case (pred, nPages, maxByVal) if nPages >= 2 && maxByVal * 2 > nPages => pred }
      .toSet

    // ---- final per-(page, pred, object) decision ------------------------
    val annots = cands.flatMap { c =>
      val clusters = clustersByPred(c.predicate)
      def byCluster(paths: Seq[String]): Option[String] =
        paths.sortBy(p => (-clusters.weightOf(p), p)).headOption
      val chosen: Option[String] =
        if (dupFrequent(c.predicate)) byCluster(c.allMentions)
        else if (c.localBest.size == 1) c.localBest.headOption
        else byCluster(c.localBest)
      chosen.map(x => Annotation(c.site, c.pageId, c.cluster, x, c.predicate, c.value, c.topicId, c.topicName))
    }

    applyInformativeness(annots, topics, minAnnotations)
  }

  /** CERES-Topic ablation: all mentions x all applicable relations. */
  def annotateTopicOnly(
      pages: Dataset[PageDoc],
      topics: Vector[TopicId.PageTopic],
      kbB: Broadcast[KnowledgeBase],
      minAnnotations: Int = 3,
  )(implicit spark: SparkSession): (Vector[Annotation], Vector[TopicId.PageTopic]) = {
    val cands = collectCands(pages, topics.map(t => t.pageId -> t).toMap, kbB).collect().toVector
    val annots = cands.flatMap { c =>
      c.allMentions.map(x =>
        Annotation(c.site, c.pageId, c.cluster, x, c.predicate, c.value, c.topicId, c.topicName))
    }
    applyInformativeness(annots, topics, minAnnotations)
  }

  /** Informativeness filter + name annotations for surviving pages. */
  private def applyInformativeness(
      annots: Vector[Annotation],
      topics: Vector[TopicId.PageTopic],
      minAnnotations: Int,
  ): (Vector[Annotation], Vector[TopicId.PageTopic]) = {
    val perPage    = annots.groupBy(_.pageId)
    val keptPages  = perPage.collect { case (pid, as) if as.size >= minAnnotations => pid }.toSet
    val keptTopics = topics.filter(t => keptPages(t.pageId))
    val nameAnnots = keptTopics.map(t =>
      Annotation(t.site, t.pageId, t.cluster, t.topicXpath, NamePred, t.entityName, t.entityId, t.entityName))
    (annots.filter(a => keptPages(a.pageId)) ++ nameAnnots, keptTopics)
  }
}
